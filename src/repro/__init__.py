"""autosec-repro: reproduction of "Cybersecurity Challenges of Autonomous
Systems" (Hamad et al., DATE 2025).

The paper surveys cybersecurity challenges of autonomous systems across a
layered architecture, using autonomous vehicles as the running example.
This package operationalizes every layer as executable simulators and
analysis tooling:

* :mod:`repro.core`   -- layered framework, threat catalog, cross-layer analyzer (Fig. 1, SVIII)
* :mod:`repro.crypto` -- crypto substrate (AES/CMAC/GCM/Ed25519/X25519 on `cryptography`)
* :mod:`repro.phy`    -- UWB secure ranging, PKES, sensor attacks (SII, Fig. 2)
* :mod:`repro.ivn`    -- in-vehicle networks + SECOC/MACsec/CANsec/CANAL (SIII, Figs. 3-6, Table I)
* :mod:`repro.ssi`    -- self-sovereign identity, SDV reconfiguration, charging (SIV, Fig. 7)
* :mod:`repro.datalayer` -- cloud telemetry, CARIAD kill chain, privacy (SV, Fig. 8)
* :mod:`repro.sos`    -- MaaS system-of-systems threat analysis (SVI, Fig. 9)
* :mod:`repro.collab` -- collaborative perception and competition (SVII)

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
per-figure experiment index.
"""

__version__ = "1.0.0"
