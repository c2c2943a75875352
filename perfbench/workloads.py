"""The benchmark's workloads. Plain data: importing this module imports
neither numpy nor modgcn, so the set-up probe can time those imports."""

from dataclasses import dataclass

DATASET = "synthcora"      # any name but cora or citeseer: no shape check
ALPHA = 0.5                # fixed trade-off for the -mod/-aux rows of a matrix
EPOCHS = 100
CHEB_ORDER = 2


@dataclass(frozen=True)
class Workload:
    """One pass is a single library call over this job list, as the CLI's
    `experiment` (run_matrix) or `sweep-alpha` (alpha_sweep) makes it."""

    name: str
    models: tuple
    budgets: tuple
    reference_acc: float   # expected test_acc_mean over the job list
    acc_tolerance: float   # largest |test_acc_mean - reference_acc| allowed
    n_runs: int = 1
    jobs: int = 1          # process-pool size; traced passes use 1
    grid: tuple = ()       # alpha grid; non-empty means alpha_sweep
    cold: bool = False     # every pass starts from a data dir with no cache

    @property
    def encoders(self) -> tuple:
        """Encoders whose filter supports the workload's runs use."""
        return tuple(sorted({m.split("-")[0] for m in self.models
                             if m != "ica"}))

    @property
    def runs_per_pass(self) -> int:
        return (len(self.models) * len(self.budgets) * self.n_runs
                * max(1, len(self.grid)))


WORKLOADS = {w.name: w for w in (
    Workload("matrix-gcn", ("gcn", "gcn-mod", "gcn-aux"), (5, 20),
             reference_acc=0.92, acc_tolerance=0.05),
    Workload("sweep-cheb", ("chebnet-mod", "chebnet-aux"), (20,), jobs=2,
             grid=(0.1, 0.5), reference_acc=0.75, acc_tolerance=0.15),
    Workload("cold-ica", ("ica",), (5, 20), n_runs=15, cold=True,
             reference_acc=0.48, acc_tolerance=0.12),
)}
