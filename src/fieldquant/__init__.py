"""Conserved-operator solutions and resistance quantization for charged
particles in constant fields, verified symbolically and against independent
numerical propagators."""

from .config import (SystemConfig, ConfigError, build_config, load_config,
                     natural_config, serialize, cyclotron_frequency)
from .algebra import (OperatorExpr, Gen, commutator, partial_t, heisenberg_residual,
                      adjoint, parse_operator, to_text, hamiltonian_1d,
                      hamiltonian_parallel, eigen_ladder_check)
from .solutions import (phi_electric, psi_electric_shifted, degeneracy_polynomial,
                        superposition_taylor, hermite_poly, oscillator_eigenfunction,
                        landau_level, phi2_family_y, phi2_family_z,
                        full_parallel_solution, AnalyticSolution)
from .grids import (Grid1D, Grid2D, WaveField, sample, apply_momentum,
                    apply_hamiltonian_1d, apply_hamiltonian_yz,
                    schrodinger_residual, inner_product, norm, expectation,
                    commensurate_time, landau_grid, NyquistError)
from .propagate import (EvolutionSpec, TrajectoryRecord, evolve, estimate_order,
                        cyclotron_period, AlreadyConvergedError)
from .symmetry import (Unitary, apply_unitary, conjugation_symmetry_check,
                       invariance_phase, QuantizationReport, quantization_report,
                       scan_quantization, build_parallel_superposition)
from .observables import (CurrentProfile, probability_current_1d, drift_velocity,
                          newton_check, continuity_residual)
from .verify import run_verify, VerifyReport

__version__ = "0.1.0"
