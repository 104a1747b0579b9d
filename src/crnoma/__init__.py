"""Uplink CR-NOMA rate-splitting toolkit.

Closed-form outage analysis for the adaptive rate-splitting secondary user
and its SIC baselines, cross-validated by adaptive quadrature and seeded,
reproducible Monte Carlo simulation.
"""

from .analytic import (
    AnalyticReport,
    admission_probability,
    analytic_report,
    case_ii_outage,
    case_ii_outage_gap,
    conditional_case_ii_outage,
    delay_limited_throughput,
    nh_sic_case_ii_outage,
    primary_outage_probability,
    qos_sic_case_ii_outage,
    qos_sic_outage_floor,
    rs_case_i_outage,
    rs_case_ii_outage,
    rs_case_iii_outage,
    rs_total_outage,
    total_outage,
    total_outage_high_snr,
)
from .channel import GainStream, SamplerConfig
from .errors import (
    InsufficientConditioningError,
    ParameterError,
    ProbabilityRangeError,
    QuadratureError,
    UnknownSchemeError,
)
from .estimator import (
    Metric,
    OutageEstimate,
    estimate_batch,
    estimate_from_tally,
    simulate_tally,
    tally_population,
)
from .experiments import (
    SweepResult,
    SweepRow,
    SweepSpec,
    emit,
    figure_preset,
    load_spec,
    render,
    run_sweep,
    save_spec,
)
from .params import ChannelRealization, SystemParams, db_to_linear
from .quadrature import case_ii_outage_quadrature
from .strategy import (
    CaseLabel,
    RsDecision,
    SchemeId,
    TransmissionOutcome,
    benchmark_rate_nh_sic,
    benchmark_rate_qos_sic,
    evaluate_outcome,
    received_sinrs,
    rs_decide,
)

__version__ = "0.1.0"
