"""Particle parameters in Gaussian units.

All formulas keep explicit e/c, hbar and c factors. The total magnetic
moment is mu = gamma_m*hbar/2 and splits into the Dirac part
e*hbar/(2mc) plus the anomalous part mu_prime; the constructor enforces
that the three stored quantities are mutually consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

_CONSISTENCY_RTOL = 1e-12


@dataclass(frozen=True)
class ParticleParams:
    m: float
    e: float
    gamma_m: float
    mu_prime: float
    hbar: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if not (self.m > 0 and self.c > 0 and self.hbar > 0):
            raise ValueError("m, c and hbar must be positive")
        lhs = self.gamma_m * self.hbar / 2.0
        rhs = self.e * self.hbar / (2.0 * self.m * self.c) + self.mu_prime
        scale = max(1.0, abs(lhs), abs(rhs))
        if abs(lhs - rhs) > _CONSISTENCY_RTOL * scale:
            raise ValueError(
                "inconsistent moments: gamma_m*hbar/2 = %r but "
                "e*hbar/(2mc) + mu_prime = %r" % (lhs, rhs)
            )

    @property
    def mc(self) -> float:
        return self.m * self.c

    @property
    def mc2(self) -> float:
        return self.m * self.c ** 2

    @classmethod
    def from_moment(cls, m, e, mu_prime, hbar=1.0, c=1.0) -> "ParticleParams":
        """Build from (m, e, mu_prime); gamma_m = e/(mc) + 2 mu_prime/hbar."""
        gamma_m = e / (m * c) + 2.0 * mu_prime / hbar
        return cls(m=m, e=e, gamma_m=gamma_m, mu_prime=mu_prime, hbar=hbar, c=c)

    @classmethod
    def dirac(cls, m=1.0, e=1.0, hbar=1.0, c=1.0) -> "ParticleParams":
        """g = 2 particle: gamma_m = e/(mc), no anomalous moment."""
        return cls.from_moment(m, e, 0.0, hbar=hbar, c=c)

    @classmethod
    def neutral(cls, mu_prime, m=1.0, hbar=1.0, c=1.0) -> "ParticleParams":
        """Chargeless particle carrying only the anomalous moment."""
        return cls.from_moment(m, 0.0, mu_prime, hbar=hbar, c=c)
