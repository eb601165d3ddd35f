"""Simulation and statistical verification of ranked fragmentation processes."""

from . import errors
from .asymptotics import (
    SubordinatorSpec,
    extreme_cdf,
    frechet_k_cdf,
    normalize_lambda2,
    record_cdf,
    run_subordinator,
)
from .config import load_config, parse_config_text
from .measures import (
    BinaryPowerLaw,
    BrennanDurrett,
    DislocationLaw,
    FiniteAtomic,
    parse_measure,
    sub_levy_transform,
)
from .partitions import (
    FinitePartition,
    apply_permutation,
    frequencies,
    from_blocks,
    from_labels,
    paintbox,
    partition_step,
    trivial,
)
from .ranked_state import (
    MassState,
    dislocate,
    from_masses,
    prefix_mass,
    validate_fragments,
)
from .rng import replica_rng
from .simulator import (
    EventAtom,
    SimConfig,
    Trajectory,
    chi_value,
    make_step_kernel,
    next_event,
    record_value,
    run,
    write_event_csv,
    write_snapshot_csv,
)
from .stats import (
    ks_stat,
    ks_two_sample,
    poisson_pmf_test,
    pooled_chi_square,
)
from .suites import (
    CONFIG_EXIT,
    FAIL_EXIT,
    PASS_EXIT,
    CheckResult,
    SuiteReport,
    run_replicas,
    run_suite,
    suite_names,
)

__version__ = "0.1.0"
