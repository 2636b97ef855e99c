"""Bundled physical constants.

All SI values follow the 2019 redefinition (CODATA 2018): h, e and c are
exact by definition, so everything derived from them here is exact too.
Gaussian-CGS values are derived from the exact SI ones.
"""

import math

# --- SI, exact by definition (2019 redefinition) ---
PLANCK_SI = 6.62607015e-34            # J s
ELEMENTARY_CHARGE_SI = 1.602176634e-19  # C
SPEED_OF_LIGHT_SI = 299792458.0       # m / s

HBAR_SI = PLANCK_SI / (2.0 * math.pi)  # J s, derived

# --- Gaussian CGS, derived from the SI values ---
HBAR_CGS = HBAR_SI * 1e7              # erg s
SPEED_OF_LIGHT_CGS = SPEED_OF_LIGHT_SI * 1e2   # cm / s
# statcoulomb: q_esu = q_C * c_cgs / 10, exact given exact e and c
ELEMENTARY_CHARGE_CGS = ELEMENTARY_CHARGE_SI * SPEED_OF_LIGHT_CGS / 10.0

# Resistance quantum h/e^2 in ohm.  Kept as an independent reference so the
# computed ratio can be cross-checked against it; exact SI makes the true
# value 25812.8074593045... ohm.
VON_KLITZING_OHM = 25812.8074593045
# absolute tolerance implied by the digits quoted above
VON_KLITZING_OHM_TOL = 1e-9
