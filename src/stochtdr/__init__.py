"""Stochastic-logic time delay reservoir simulator.

Numbers become Bernoulli bit streams, arithmetic becomes single logic
gates, and one nonlinear node plus a delay line becomes a reservoir whose
linear readout is trained by ridge regression.  Three backends share one
update law: exact math, deterministic Bernstein-polynomial activation, and
a bit-exact stochastic-logic pipeline.

The package is its modules; import names from them: ``streams`` (LFSRs,
B2S/S2B and the gate kernels), ``bernstein`` (the activation fit and the
adder+MUX node), ``reservoir`` (``TdrConfig`` and ``Reservoir``),
``readout`` (ridge training and scores), ``metrics`` (kernel quality and
generalization rank), ``tasks`` (NARMA10 and sine/square) and ``cli``.
"""

__version__ = "0.1.0"
