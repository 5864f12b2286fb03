"""Run the reference solvers in place of the shipped ones.

``src`` keeps one solver path.  A test or bench that wants the seed's
dense loops end to end patches them in where
:func:`repro.core.reconstruction.reconstruct` looks its solvers up,
through pytest's ``monkeypatch``, so the substitution ends with the
test.  :func:`use_private_dense_bases` restores the seed broker's other
cost: every broker builds and owns its dense basis instead of sharing
the registry's operator.
"""

from __future__ import annotations

from repro.core import reconstruction
from repro.core.basis import basis_by_name, dct2_basis
from repro.core.operators import BasisOperator

from .solvers import chs_reference, omp_reference

__all__ = [
    "reference_chs",
    "use_reference_solvers",
    "use_private_dense_bases",
]


def reference_chs(phi, x_s, locations, **kwargs):
    """:func:`chs_reference` behind ``chs``'s signature: the reference
    loop needs the dense matrix, so an operator basis is densified."""
    dense = phi.to_dense() if isinstance(phi, BasisOperator) else phi
    return chs_reference(dense, x_s, locations, **kwargs)


def use_reference_solvers(monkeypatch) -> None:
    """Make ``reconstruct`` solve CHS and OMP with the reference loops."""
    monkeypatch.setattr(reconstruction, "chs", reference_chs)
    monkeypatch.setattr(reconstruction, "omp", omp_reference)


def use_private_dense_bases(monkeypatch, brokers) -> None:
    """Give each broker a private dense basis, built from scratch.

    The build happens on the broker's first solve, as it did in the
    seed, so a timed round pays for it.
    """
    for broker in brokers:

        def basis(broker=broker):
            cfg = broker.config
            if broker._basis_cache is None:
                if cfg.use_prior_basis and broker.prior is not None:
                    broker._basis_cache = broker.prior.basis
                elif cfg.basis == "dct2":
                    broker._basis_cache = dct2_basis(
                        broker.zone_width, broker.zone_height
                    )
                else:
                    broker._basis_cache = basis_by_name(cfg.basis, broker.n)
            return broker._basis_cache

        monkeypatch.setattr(broker, "_basis", basis)
