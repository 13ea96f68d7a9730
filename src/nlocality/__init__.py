"""Simulation and analysis of source-independent quantum network scenarios."""

from .analysis import (BellFunctional, SeparabilityReport, bell_evaluate,
                       load_bell_functional, mermin_functional, negativity,
                       parse_bell_functional, separability_check,
                       tripartite_behavior)
from .families import closed_form_bound, family_groupings, family_state
from .lhv import (appendix_b_behavior, deterministic_behavior,
                  enumerate_deterministic)
from .linalg import (hermitian_eigenvalues, kron, partial_trace,
                     partial_transpose, permute_qubits)
from .measurements import (BlochObservable, GHZGrouping, balanced_groupings,
                           bloch_observable, coherent_groupings,
                           ghz_basis_vector, ghz_basis_vector_n,
                           parse_grouping, partial_ghz_observable,
                           table1_settings)
from .network import (Behavior, IValue, NLocalNetwork, NLocalSettings,
                      ScoreReport, SettingsBundle, TrilocalNetwork, assemble,
                      behavior, i_value, ivalue_table, local_score,
                      nlocal_behavior, nlocal_score, swapped_state,
                      trilocal_score)
from .optimize import (NoBracketError, OptimizationResult, OptimizerConfig,
                       ThresholdResult, default_nlocal_groupings,
                       maximize_local, maximize_nlocal, maximize_trilocal,
                       visibility_threshold)
from .states import (KrausSet, amplitude_damped_ghz, amplitude_damping_kraus,
                     apply_channel_per_qubit, biseparable_state,
                     depolarized_ghz, gghz_state, ghz_n_state,
                     ghz_symmetric_state, phase_damped_ghz,
                     phase_damping_kraus)

__version__ = "0.1.0"
