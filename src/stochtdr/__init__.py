"""Stochastic-logic time delay reservoir simulator.

Numbers become Bernoulli bit streams, arithmetic becomes single logic
gates, and one nonlinear node plus a delay line becomes a reservoir whose
linear readout is trained by ridge regression.  Three backends share one
update law: exact math, deterministic Bernstein-polynomial activation, and
a bit-exact stochastic-logic pipeline.
"""

from .streams import (
    DEFAULT_Q,
    b2s,
    lfsr_words,
    maximal_taps,
    pack,
    quantize,
    quantize_probability,
    s2b,
    stoch_mult,
    stoch_mux_average,
    supported_widths,
)
from .bernstein import (
    TransformedActivation,
    bernstein_basis,
    bernstein_eval,
    bernstein_mux_packed,
    fit_bernstein_coeffs,
    make_independent_copies,
    spread_delays,
)
from .reservoir import (
    Reservoir,
    TdrConfig,
    derive_seed,
)
from .readout import (
    RankDeficiencyError,
    classification_accuracy,
    nmse,
    predict,
    ridge_train,
)
from .metrics import (
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
)

__version__ = "0.1.0"
