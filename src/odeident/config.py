"""Central tolerance/budget configuration.

Every numerical threshold used by the toolkit lives in one frozen record,
``DEFAULTS``, so the complete set can be read in one place. The thresholds
are fixed constants: library functions read ``DEFAULTS`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # numkernel
    eig_max_dim: int = 12               # largest matrix accepted by eigenvalues()
    mat_exp_scaled_norm: float = 0.5    # scale-and-square until ||A/2^s|| <= this

    # ode
    integrator_tol: float = 1e-10       # default local error tolerance
    integrator_min_tol: float = 1e-14
    integrator_max_tol: float = 1e-3
    integrator_max_steps: int = 1_000_000
    fd_step_scale: float = 4.6416e-06   # cbrt(eps), for callback finite differences

    # obsmap
    gamma_safety: float = 1.5           # default multiplier on sampled ||D2 phi||
    gamma_fd_step: float = 1e-4         # directional second-difference step scale
    verify_margin_rel: float = 1e-6     # slack on sqrt(beta)/2 in verify_lower_bound
    zeta_budget: int = 200_000          # max lattice cells per scan
    certify_budget: int = 100_000       # max gamma samples, and max verify pairs

    # linearcase
    k_scan: int = 16                    # aliasing search bound |k| <= k_scan
    krylov_rank_rel: float = 1e-10      # Krylov dependence threshold, rel. sigma1
    k_max: int = 2                      # default log-branch enumeration bound
    eig_repeat_tol: float = 1e-9        # eigenvalues this close (times scale) coincide
    branch_budget: int = 10_000         # max enumerated branches
    aliasing_im_tol: float = 1e-7       # |Im(dl)*h/2pi - round(.)| threshold
    aliasing_re_tol: float = 1e-9       # |Re(dl)| threshold, times eigenvalue scale
    branch_exp_tol: float = 1e-8        # ||exp(h b) - exp(h a0)||_inf acceptance
    branch_distinct_tol: float = 1e-6   # branches closer than this are duplicates
    imag_residue_tol: float = 1e-9      # allowed Im part when reassembling branches
    divdiff_min_gap: float = 1e-8         # minimum eigenvalue separation

    # estimate
    gn_max_iter: int = 50
    gn_step_tol: float = 1e-12
    gn_grad_tol: float = 1e-9
    gn_damping: float = 1e-3
    gn_damping_down: float = 0.5        # on accepted step
    gn_damping_up: float = 4.0          # on rejected step


DEFAULTS = Tolerances()
