"""Real-time detection of hybrid bias-injection and jamming attacks on a
linear dynamic grid model: dual-Kalman generalized-CUSUM detection with
closed-form attack estimates, stealthy-attack countermeasures, attacker-side
stealth design, benchmark detectors, and a Monte Carlo evaluation harness.

The package binds ``load_config`` and the ``harness`` module; every other
name is imported from the module that defines it."""

from .expconfig import load_config
from . import harness

__version__ = "0.1.0"
