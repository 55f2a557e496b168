"""Core framework: the paper's layered architecture, threat taxonomy,
system modeling, metrics, cross-layer analysis, and intrusion response.

This package is the "primary contribution" layer of the reproduction: the
paper's conceptual framework (Fig. 1 + §VIII) made executable. The
per-layer simulators (:mod:`repro.phy`, :mod:`repro.ivn`, :mod:`repro.ssi`,
:mod:`repro.datalayer`, :mod:`repro.sos`, :mod:`repro.collab`) plug their
attacks and defenses into the catalog defined here.

Import a name from the module that defines it: the package re-exports only
:class:`~repro.core.events.Simulator`, so that importing any
``repro.core.<module>`` does not also load the analyzer, networkx and
numpy.
"""

from repro.core.events import Simulator

__all__ = ["Simulator"]
