"""Doubly stochastic solver for bilevel problems whose lower level is
strongly convex with coupled linear inequality constraints, plus the
quadratic benchmark harness around it."""

from .algorithm import (DsbloParams, IterateRecord, ManualMode, RunLog, TheoryMode,
                        run_dsblo, run_igd_baseline, schedule, step_size)
from .diagnostics import (eval_F_exact, fd_gradient_oracle, perturbation_error_check,
                          stationarity_profile, stationarity_window)
from .implicit_grad import ImplicitGradient, implicit_gradient, jacobians, \
    sampled_implicit_gradient
from .lower_level import (LLSolution, Perturbation, sample_perturbation, sc_margin,
                          solve_ll_bruteforce, solve_ll_oracle, solve_ll_quadratic,
                          solve_qp)
from .problem import (Polyhedron, ProblemOracle, QuadraticBilevel, eval_f,
                      fingerprint, generate_instance, instance_from_dict,
                      instance_to_dict, load_instance, oracle_from_quadratic,
                      sample_component, save_instance)

__version__ = "0.1.0"
