"""The benchmark's workloads: which ``endokit verify`` command each one runs.

This module imports nothing from endokit, so ``run.py`` can read it without
paying for the library's import.
"""

from __future__ import annotations

from dataclasses import dataclass

# Every check record the descent suite writes for one scenario
# (``campaign._check_outcome``), in its emission order.
DESCENT_CHECKS = (
    "sign-rule-vs-descent",
    "pushed-group",
    "instable-coefficient",
    "stable-coefficient",
    "coefficient-ratio",
    "transverse-volumes-match",
    "long-short-closed-form",
    "final-identity",
    "center-product-law",
    "stable-map-injective",
    "stable-map-bijective",
    "instable-map-surjective",
    "instable-fiber-law",
    "section-inverts-pushforward",
    "entry-count",
)


@dataclass(frozen=True)
class Workload:
    name: str
    suites: tuple[str, ...]  # empty: the CLI default, every suite
    max_rank: int
    jobs: int
    operation: str  # what one attempted operation is

    def verify_args(self, seed: int, out: str, max_rank: int | None = None) -> list[str]:
        args = ["verify", "--max-rank", str(max_rank or self.max_rank), "--seed", str(seed)]
        if self.suites:
            args += ["--suites", ",".join(self.suites)]
        return args + ["--jobs", str(self.jobs), "--out", out]

    @property
    def has_descent(self) -> bool:
        return not self.suites or "descent" in self.suites


WORKLOADS = {
    w.name: w
    for w in (
        Workload("descent-r4", ("descent",), 4, 1, "scenario"),
        Workload("torsion", ("torsion",), 1, 1, "sample"),
        Workload("verify-r4-jobs2", (), 4, 2, "record"),
    )
}
