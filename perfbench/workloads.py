"""The benchmark's three workloads, as mgritlab config texts.

Inputs are the package's named initial profiles on fixed grids; nothing is
drawn at random. Each workload also names the reflection its serial
trajectory keeps exactly in exact arithmetic (output check (c)): cell i
maps to cell (mirror - i) mod N and component d changes sign by parity[d].
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    config_text: str
    mirror: str      # "quarter": about x = L/4; "half": about x = L/2
    parity: tuple    # +1 even, -1 odd, per component
    matched_lf: bool  # the serial run is the one-step LF scheme (check (d))

    def mirror_index(self, n_cells: int) -> int:
        return n_cells // 2 - 1 if self.mirror == "quarter" else n_cells - 1


# The paper's discretisation of choice: characteristic WENO5, Roe flux,
# SSP-RK3 on every level. Kernels (WENO, eigenvectors, Roe) take the time.
EULER_WENO5_ROE = Workload(
    name="euler-weno5-roe",
    config_text="""\
problem = euler
ic = euler-energy-sin
L = 1.0
T = 0.5
N_x = 64
N_t = 400
n_levels = 3
m = 2
cycle = v
relaxation = f
flux = roe
weno_order = 5
characteristic = true
stepper = ssprk3
coarse = rediscretize
max_iters = 6
""",
    mirror="quarter", parity=(1, -1, 1), matched_lf=False)

# Matched order-1 coarse operators at a coarsest-level CFL of about 0.95:
# cheap np.roll steppers on large batches and a seven-level schedule; no
# WENO, eigenvectors or interface fluxes.
BURGERS_MATCHED_CFL = Workload(
    name="burgers-matched-cfl",
    config_text="""\
problem = burgers
ic = sin-stationary
L = 1.0
T = 0.475
N_x = 128
N_t = 4096
n_levels = 7
m = 2
cycle = v
relaxation = f
stepper = matched-lf
coarse = matched-1
max_iters = 10
""",
    mirror="half", parity=(-1,), matched_lf=True)

# Same kernel families as the Euler workload through other code paths
# (global-alpha LF flux, closed-form 2x2 eigenvectors), and the other MGRIT
# paths: C-relaxation, F-cycle re-descents, injection restriction guess.
SW_WENO3_LF_FCF = Workload(
    name="sw-weno3-lf-fcf",
    config_text="""\
problem = shallow-water
ic = sw-scaled
L = 1.0
T = 0.5
N_x = 64
N_t = 400
n_levels = 3
m = 2
cycle = f
relaxation = fcf
restriction_guess = injection
flux = lf
weno_order = 3
characteristic = true
stepper = ssprk3
coarse = rediscretize
max_iters = 5
""",
    mirror="quarter", parity=(1, -1), matched_lf=False)

WORKLOADS = {w.name: w for w in (EULER_WENO5_ROE, BURGERS_MATCHED_CFL,
                                 SW_WENO3_LF_FCF)}
