"""Finite discrete-time markets with restricted information and delays.

Partition-based filtrations, exact rational arithmetic throughout, LP
oracles for the fundamental theorem of asset pricing, and stopping-time
delay processes for delayed information and deferred order execution.
"""

from .arbitrage import (
    FreeLunch,
    FreeLunchCertificate,
    MartingaleMeasureCertificate,
    NoFreeLunch,
    OracleDisagreementError,
    Verdict,
    check_naflp,
    find_free_lunch,
    find_martingale_measure,
    render_verdict,
    terminal_wealth,
    verify_certificate,
)
from .delays import (
    DelayPreconditionError,
    ExecutionDelayFamily,
    InformationDelayFamily,
    delayed_market,
    information_delayed_market,
    invert_delay,
    large_delayed_filtrations,
    min_delay,
    representation_check,
    superimpose_delays,
)
from .documents import DocumentError, MarketDocument, parse_market_document, serialize_market_document
from .markets import (
    GainGenerator,
    Market,
    Strategy,
    gain_generators,
    validate_market,
    validate_strategy,
)
from .probability import (
    Filtration,
    FiniteSpace,
    Partition,
    StoppingProcess,
    conditional_expectation,
    join_each,
    refines,
    sigma_join,
    sigma_meet,
    stopped_fields,
    stopped_sigma_field,
    validate_stopping_process,
)
from .rationals import Rational, format_rational, parse_rational
from .scenarios import (
    EXPERIMENTS,
    ScenarioConfig,
    gen_insider_execution_market,
    gen_insider_market,
    gen_martingale_market,
    gen_random_delay,
    gen_random_market,
    run_experiment,
)

__version__ = "0.1.0"
