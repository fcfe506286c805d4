"""fueterlab: a desk-scale numerical laboratory for quaternionic del-bar maps,
energy monotonicity, Hardy/Lorentz norm machinery, the perturbed-Poisson
fixed-point scheme, and bubble-tree energy quantization on synthetic
concentrating sequences.
"""

from .quat import SphereStructure, StructureTriple, kaehler_form
from .exterior import KForm, contract, tangential_part, wedge, wedge_power
from .fields import (
    GridField,
    differential,
    dirichlet_energy,
    energy_identity_defects,
    load_fld1,
    save_fld1,
    triholo_residual,
)

__version__ = "0.1.0"
