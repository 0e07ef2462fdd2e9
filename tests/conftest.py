import pytest

from bendlab.cohomology import CocycleSpace
from bendlab.fixtures import load_bundle, load_presentation, load_representation
from bendlab.modules import CoefficientModule


@pytest.fixture(scope="session")
def bundle():
    pres = load_presentation()
    return load_bundle(pres, load_representation(pres))


@pytest.fixture(scope="session")
def borromean(bundle):
    return bundle.presentation


@pytest.fixture(scope="session")
def rho(bundle):
    return bundle.representation


@pytest.fixture(scope="session")
def modules(rho):
    return {kind: CoefficientModule(rho, kind) for kind in ("standard", "nu", "adjoint")}


@pytest.fixture(scope="session")
def spaces(borromean, modules):
    return {kind: CocycleSpace(borromean, mod) for kind, mod in modules.items()}
