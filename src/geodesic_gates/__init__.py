"""Geometric synthesis of crosstalk-robust single-qubit gates.

Single-qubit drives in coupled qubit arrays see state-dependent detunings
(ZZ crosstalk) and leak onto neighbors (control crosstalk). This package
reverse-engineers control pulses from closed curves on the 2-sphere, adds
first-order Magnus robustness functionals, and validates every pulse by
direct time-domain simulation of the two- and three-qubit models.

Import each name from its own module; the package root holds only `__version__`.
"""

__version__ = "0.1.0"
