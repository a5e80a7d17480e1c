"""Baseline fusion methods the paper compares against (Section 5).

- :mod:`repro.baselines.voting` -- UNION-K and majority voting;
- :mod:`repro.baselines.estimates` -- 3-Estimates (Galland et al.,
  WSDM 2010);
- :mod:`repro.baselines.ltm` -- the Latent Truth Model (Zhao et al.,
  PVLDB 2012), collapsed Gibbs sampling;
- :mod:`repro.baselines.accu` -- AccuCopy, accuracy-weighted voting with
  copy detection (Dong et al., PVLDB 2009; closed-world single truth).
"""

from repro.baselines.accu import AccuCopyFuser
from repro.baselines.estimates import ThreeEstimatesFuser
from repro.baselines.ltm import LatentTruthModel, LTMPriors
from repro.baselines.voting import MajorityVoteFuser, UnionKFuser

__all__ = [
    "AccuCopyFuser",
    "LTMPriors",
    "LatentTruthModel",
    "MajorityVoteFuser",
    "ThreeEstimatesFuser",
    "UnionKFuser",
]
