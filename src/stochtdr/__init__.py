"""Stochastic-logic time delay reservoir simulator.

Numbers become Bernoulli bit streams, arithmetic becomes single logic
gates, and one nonlinear node plus a delay line becomes a reservoir whose
linear readout is trained by ridge regression.  Three backends share one
update law: exact math, deterministic Bernstein-polynomial activation, and
a bit-exact stochastic-logic pipeline.
"""

from .streams import (
    DEFAULT_Q,
    BipolarValue,
    BitStream,
    LfsrGenerator,
    b2s,
    lfsr_next,
    maximal_taps,
    quantize,
    quantize_probability,
    s2b,
    stoch_mult,
    stoch_mux_average,
    stoch_negate,
    supported_widths,
    unipolar_select_stream,
)
from .bernstein import (
    BernsteinSpec,
    TransformedActivation,
    bernstein_basis,
    bernstein_eval,
    fit_bernstein_coeffs,
    make_independent_copies,
    power_to_bernstein,
    spread_delays,
    stochastic_bernstein_eval,
    transform_activation,
)
from .reservoir import (
    Reservoir,
    TdrConfig,
    TdrState,
    activation_ideal,
    derive_seed,
    reseed_for_node,
    resolve_weights,
    run_reservoir,
    write_states_csv,
)
from .readout import (
    RankDeficiencyError,
    ReadoutModel,
    classification_accuracy,
    nmse,
    predict,
    ridge_train,
)
from .metrics import (
    MetricRun,
    generalization_rank,
    kernel_quality,
    metric_study,
    numerical_rank,
)
from .tasks import (
    EvalResult,
    NarmaSequence,
    SineSquareSequence,
    evaluate_classification,
    evaluate_regression,
    narma10_generate,
    narma10_recurrence,
    sine_square_generate,
    write_sequence_csv,
)

__version__ = "0.1.0"
