import pytest

from bendlab.cohomology import CocycleSpace
from bendlab.fixtures import load_bundle
from bendlab.modules import CoefficientModule


@pytest.fixture(scope="session")
def bundle():
    return load_bundle()


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
