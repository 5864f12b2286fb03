"""Frozen behavioural oracles: the tests' copies of superseded code.

The shipped package has one code path per job.  The earlier forms it
replaced live here, where only tests and benchmarks can reach them:

- :mod:`tests.oracles.solvers` — the seed's dense CHS and OMP loops,
  moved verbatim from ``src``.  The fast solvers must agree with them
  (``tests/core/test_fast_solver.py``) and the PERF bench times them as
  its baseline arm.
- :mod:`tests.oracles.bus` — the message bus as it shipped before the
  transport split, moved verbatim from ``src``;
  ``tests/network/test_transport_identity.py`` holds
  :class:`repro.network.transport.SimTransport` bit-identical to it.
- :mod:`tests.oracles.population` — the object-per-node stepper and
  scalar noise loop the struct-of-arrays population is pinned to.
- :mod:`tests.oracles.substitution` — how a test runs the reference
  solvers in place of the shipped ones (``monkeypatch``), since ``src``
  keeps no switch for them.
"""
