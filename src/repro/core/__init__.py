"""RDDR core: Replicate, De-noise, Diff, Respond (the paper's contribution).

* :mod:`repro.core.incoming` / :mod:`repro.core.outgoing` — the proxies.
* :mod:`repro.core.exchange` — the exchange engine both are built on.
* :mod:`repro.core.diff` — tokenized divergence detection.
* :mod:`repro.core.denoise` — filter-pair nondeterminism masking.
* :mod:`repro.core.ephemeral` — CSRF-style per-instance state handling.
* :mod:`repro.core.variance` — configured known-variance masking.
* :mod:`repro.core.rddr` — deployment wiring (Figure 2).
"""

from repro.core.config import RddrConfig
from repro.core.denoise import FilterPair, FilterPairDenoiser, learn_noise_mask
from repro.core.diff import (
    TOKEN_WILDCARD,
    CharRange,
    DiffResult,
    NoiseMask,
    TokenDifference,
    diff_tokens,
    differing_ranges,
)
from repro.core.ephemeral import EphemeralBinding, EphemeralStateStore
from repro.core.events import EventLog
from repro.core.incoming import IncomingRequestProxy
from repro.core.metrics import LatencyHistogram, ProxyMetrics
from repro.core.outgoing import OutgoingRequestProxy
from repro.core.rddr import RddrDeployment
from repro.core.signatures import (
    DivergenceSignature,
    SignatureStore,
    normalize_request,
)
from repro.core.variance import (
    HTTP_SERVER_HEADER_RULES,
    POSTGRES_VERSION_RULES,
    VarianceMasker,
    VarianceRule,
)

__all__ = [
    "RddrConfig",
    "FilterPair",
    "FilterPairDenoiser",
    "learn_noise_mask",
    "TOKEN_WILDCARD",
    "CharRange",
    "DiffResult",
    "NoiseMask",
    "TokenDifference",
    "diff_tokens",
    "differing_ranges",
    "EphemeralBinding",
    "EphemeralStateStore",
    "EventLog",
    "IncomingRequestProxy",
    "LatencyHistogram",
    "ProxyMetrics",
    "OutgoingRequestProxy",
    "RddrDeployment",
    "DivergenceSignature",
    "SignatureStore",
    "normalize_request",
    "HTTP_SERVER_HEADER_RULES",
    "POSTGRES_VERSION_RULES",
    "VarianceMasker",
    "VarianceRule",
]
