"""Age-renewal equation simulator for measure-valued initial data.

Measures are grid densities plus exact atoms; the equation is solved by
exact characteristics around a Volterra birth-trace solver, and the package
verifies the model's conservation, entropy-dissipation and long-time
convergence structure numerically.
"""

from .errors import (
    EntropyError,
    MeasureError,
    RenewalError,
    ScenarioError,
    SpectralError,
    TransportError,
)
from .measures import (
    HybridMeasure,
    angle_bracket,
    flat_distance,
    integrate,
    mollify,
    read_snapshot,
    write_snapshot,
)
from .spectral import (
    BirthLaw,
    SpectralData,
    eigen_N,
    eigen_phi,
    solve_lambda0,
    solve_spectral,
)
from .transport import (
    Trajectory,
    birth_series,
    evolve,
    tail_phi_mass,
)
from .entropy import (
    EntropyIntegrand,
    abs_shift,
    builtin_integrand,
    gre_functional,
    jensen_defect,
    make_integrand,
    recession,
    verify_B_dominates_phi,
)
from .convergence import (
    BirthIntegralReport,
    DecayFit,
    MollificationReport,
    distance_to_equilibrium,
    fit_decay_rate,
    reshetnyak_harness,
    sample_diagnostics,
)
from .scenarios import Scenario, load_scenario, parse_scenario

__version__ = "0.1.0"
