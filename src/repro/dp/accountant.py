"""Zero-concentrated differential privacy (zCDP) accounting.

The paper states all privacy guarantees in terms of ``rho``-zCDP
(Definition 2.1, Bun & Steinke 2016).  This module provides:

* :class:`ZCDPAccountant` — a ledger that charges each noisy release and
  enforces a total budget (Theorem 2.1: zCDP composes additively).
* :func:`zcdp_to_approx_dp` — the standard conversion
  ``rho``-zCDP ⟹ ``(rho + 2 sqrt(rho ln(1/delta)), delta)``-DP, useful for
  reporting guarantees in the more familiar approximate-DP currency.
* :func:`gaussian_rho` / :func:`gaussian_sigma_sq` — calibration helpers for
  the (discrete) Gaussian mechanism: a sensitivity-``Delta`` query answered
  with variance ``sigma^2`` noise costs ``Delta^2 / (2 sigma^2)`` zCDP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ConfigurationError, PrivacyBudgetError

__all__ = [
    "ZCDPAccountant",
    "zcdp_to_approx_dp",
    "gaussian_rho",
    "gaussian_sigma_sq",
]

# Tolerance for floating-point budget comparisons: charging exactly the
# remaining budget must succeed even after accumulated rounding error.
_BUDGET_RTOL = 1e-9


def gaussian_rho(sensitivity: float, sigma_sq: float) -> float:
    """zCDP cost of one Gaussian-noise release: ``sensitivity^2/(2 sigma^2)``."""
    if sensitivity < 0:
        raise ConfigurationError(f"sensitivity must be non-negative, got {sensitivity}")
    if sigma_sq <= 0:
        raise ConfigurationError(f"sigma_sq must be positive, got {sigma_sq}")
    return sensitivity**2 / (2.0 * sigma_sq)


def gaussian_sigma_sq(sensitivity: float, rho: float) -> float:
    """Noise variance needed for a sensitivity-``Delta`` query at ``rho``-zCDP."""
    if sensitivity < 0:
        raise ConfigurationError(f"sensitivity must be non-negative, got {sensitivity}")
    if rho <= 0:
        raise ConfigurationError(f"rho must be positive, got {rho}")
    return sensitivity**2 / (2.0 * rho)


def zcdp_to_approx_dp(rho: float, delta: float) -> float:
    """Smallest ``eps`` such that ``rho``-zCDP implies ``(eps, delta)``-DP.

    Uses the conversion of Bun & Steinke (2016, Proposition 1.3):
    ``eps = rho + 2 sqrt(rho * ln(1/delta))``.
    """
    if rho < 0:
        raise ConfigurationError(f"rho must be non-negative, got {rho}")
    if not 0 < delta < 1:
        raise ConfigurationError(f"delta must lie in (0, 1), got {delta}")
    return rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))


@dataclass
class _Charge:
    """One entry in the ledger."""

    label: str
    rho: float


class ZCDPAccountant:
    """Additive zCDP budget ledger.

    Mechanisms composed on the same dataset charge the accountant; the
    accountant refuses charges that would exceed ``total_rho`` (Theorem 2.1
    makes the sum of charges a valid bound for the composition).

    Parameters
    ----------
    total_rho:
        The hard total budget; a charge pushing the ledger past it raises
        :class:`~repro.exceptions.PrivacyBudgetError` *before* the
        mechanism runs.

    Raises
    ------
    repro.exceptions.ConfigurationError
        If ``total_rho`` is not positive.

    Examples
    --------
    >>> acct = ZCDPAccountant(total_rho=0.005)
    >>> acct.charge(0.001, label="histogram t=3")
    >>> round(acct.spent, 6)
    0.001
    >>> round(acct.remaining, 6)
    0.004
    """

    def __init__(self, total_rho: float):
        if total_rho <= 0:
            raise ConfigurationError(f"total_rho must be positive, got {total_rho}")
        self.total_rho = float(total_rho)
        self._charges: list[_Charge] = []

    @property
    def spent(self) -> float:
        """Total zCDP charged so far."""
        return math.fsum(charge.rho for charge in self._charges)

    @property
    def remaining(self) -> float:
        """Budget still available (never negative)."""
        return max(0.0, self.total_rho - self.spent)

    @property
    def charges(self) -> tuple[tuple[str, float], ...]:
        """Immutable view of the ledger as ``(label, rho)`` pairs."""
        return tuple((charge.label, charge.rho) for charge in self._charges)

    def charge(self, rho: float, label: str = "") -> None:
        """Record a ``rho``-zCDP release; raise if the budget would overflow."""
        if rho < 0:
            raise ConfigurationError(f"rho must be non-negative, got {rho}")
        new_total = self.spent + rho
        if new_total > self.total_rho * (1.0 + _BUDGET_RTOL):
            raise PrivacyBudgetError(
                f"charging {rho:.6g} zCDP would exceed the total budget: "
                f"spent {self.spent:.6g} of {self.total_rho:.6g}"
            )
        self._charges.append(_Charge(label=label, rho=float(rho)))

    def epsilon(self, delta: float) -> float:
        """``(eps, delta)``-DP guarantee implied by the budget spent so far."""
        return zcdp_to_approx_dp(self.spent, delta)

    def to_dict(self) -> dict:
        """Serialize the ledger as a JSON-safe dict.

        Returns
        -------
        dict
            ``{"total_rho": float, "charges": [[label, rho], ...]}`` — the
            complete ledger in charge order, sufficient for
            :meth:`from_dict` to rebuild an accountant that accepts and
            refuses exactly the same future charges.
        """
        return {
            "total_rho": self.total_rho,
            "charges": [[charge.label, charge.rho] for charge in self._charges],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ZCDPAccountant":
        """Rebuild an accountant from :meth:`to_dict` output.

        Parameters
        ----------
        payload:
            A dict with ``total_rho`` (positive float) and ``charges``
            (sequence of ``[label, rho]`` pairs).

        Returns
        -------
        ZCDPAccountant
            A ledger with the same total budget and the same charges, in
            the same order.

        Raises
        ------
        repro.exceptions.SerializationError
            If the payload is structurally invalid or its charges exceed
            the declared total budget (a tampered or corrupt ledger).
        """
        from repro.exceptions import SerializationError

        try:
            accountant = cls(float(payload["total_rho"]))
            entries = list(payload["charges"])
        except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
            raise SerializationError(f"invalid accountant payload: {exc}") from exc
        for entry in entries:
            try:
                label, rho = entry
                accountant.charge(float(rho), label=str(label))
            except (TypeError, ValueError, ConfigurationError, PrivacyBudgetError) as exc:
                raise SerializationError(
                    f"invalid ledger entry {entry!r}: {exc}"
                ) from exc
        return accountant

    def __repr__(self) -> str:
        return (
            f"ZCDPAccountant(total_rho={self.total_rho!r}, "
            f"spent={self.spent:.6g}, charges={len(self._charges)})"
        )
