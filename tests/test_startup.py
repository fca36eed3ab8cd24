"""Start-up guards: what a cold process imports, and the POMDP bits that
must not move while it imports less.

The POMDP's binomials come from SciPy's private Boost ufunc
(``scipy.special._ufuncs._binom_pmf``) instead of ``scipy.stats``,
loaded without running ``scipy.special``'s package ``__init__``, and the
package facades resolve the detection framework on first use.  The
import checks, and the bit checks of that bare load, run fresh
interpreters: this pytest process already holds ``scipy.stats``
(tests/test_pomdp.py imports it).
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from repro.core.config import config_to_dict
from repro.core.presets import bench_preset, paper_preset, smoke_preset
from repro.detection.pomdp import (
    MONITOR,
    REPAIR,
    _binom_pmf_ufunc,
    _binomial_pmf,
    build_detection_pomdp,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh(code: str) -> object:
    """Run ``code`` in a new interpreter and return the JSON it prints last."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


_LOADED = (
    "import json, sys; "
    "print(json.dumps(sorted(m for m in sys.modules "
    "if m.split('.')[0] in ('numpy', 'scipy'))))"
)


def _ufunc_importable() -> bool:
    try:
        from scipy.special import _ufuncs
    except ImportError:
        return False
    return hasattr(_ufuncs, "_binom_pmf")


needs_ufunc = pytest.mark.skipif(
    not _ufunc_importable(),
    reason="without scipy.special._ufuncs._binom_pmf the POMDP build falls "
    "back to scipy.stats, so building a world imports it by design",
)

# What ``scipy.special``'s package ``__init__`` imports and the bare load
# of the ufunc skips: the package itself, its array-API layer, and the
# numpy modules under it.
_PACKAGE_INIT_ONLY = (
    "scipy.special",
    "scipy._lib._array_api",
    "numpy.testing",
    "numpy.f2py",
)


# ----------------------------------------------------------------------
# What a cold process imports.
def test_cli_import_loads_no_scipy():
    loaded = _fresh("import repro.cli; " + _LOADED)
    assert "numpy" in loaded
    assert [m for m in loaded if m.startswith("scipy")] == []


def test_cli_import_loads_no_example_only_module():
    """Billing and stealthy-attack planning serve only the examples, and
    the renewable forecaster is gone; a CLI process loads none of them."""
    loaded = _fresh("import json, sys, repro.cli; print(json.dumps(sorted(sys.modules)))")
    unused = re.compile(r"repro\.(billing|attacks\.stealth|prediction\.renewable)(\.|$)")
    assert [m for m in loaded if unused.match(m)] == []


def test_lint_import_loads_neither_numpy_nor_scipy():
    assert _fresh("import repro.analysis.cli; " + _LOADED) == []


def test_tariff_registry_is_filled_where_configs_are_read():
    from repro.tariffs import named_tariff, tariff_to_dict

    payload = config_to_dict(smoke_preset(seed=0))
    payload["tariff"] = tariff_to_dict(named_tariff("nem3_spread"))
    kind = _fresh(
        "import json; from repro.core.config import config_from_dict; "
        f"config = config_from_dict(json.loads({json.dumps(json.dumps(payload))})); "
        "print(json.dumps(config.tariff.kind))"
    )
    assert kind == payload["tariff"]["kind"]


@needs_ufunc
def test_service_and_fleet_set_up_without_scipy_stats(fleet_config):
    payload = json.dumps(json.dumps(config_to_dict(fleet_config)))
    loaded = _fresh(
        "import json\n"
        "from repro.core.config import config_from_dict\n"
        "from repro.fleet.engine import build_fleet\n"
        "from repro.fleet.loadgen import LoadGenerator\n"
        "from repro.service.app import DetectionService\n"
        "from repro.stream.pipeline import build_synthetic_engine\n"
        f"config = config_from_dict(json.loads({payload}))\n"
        "DetectionService(build_synthetic_engine(config, n_days=2)).advance(max_events=3)\n"
        "generator = LoadGenerator(config, n_communities=2, n_days=2, seed=5)\n"
        "build_fleet(generator.specs(), n_shards=2).tick()\n" + _LOADED
    )
    # The first POMDP build loaded the ufunc's extension, and nothing of
    # the package init.
    assert "scipy.special._ufuncs" in loaded
    assert [m for m in _PACKAGE_INIT_ONLY if m in loaded] == []
    assert [m for m in loaded if m.startswith("scipy.stats")] == []


# ----------------------------------------------------------------------
# The bits: the ufunc path and its fallback both equal scipy.stats.
_PROBABILITIES = (0.0, 1.0, 1e-13, 1.0 - 1e-13, 0.05, 0.5) + tuple(
    np.random.default_rng(2015).uniform(size=64)
)


class _CountingBinom:
    """``scipy.stats.binom`` that counts its ``pmf`` calls."""

    def __init__(self, binom):
        self.binom = binom
        self.calls = 0

    def pmf(self, *args):
        self.calls += 1
        return self.binom.pmf(*args)


@pytest.fixture
def cold_loader():
    """The ufunc loader with its once-per-process cache emptied, so that
    it loads again under the test's ``sys.modules``, and again after."""
    _binom_pmf_ufunc.cache_clear()
    yield
    _binom_pmf_ufunc.cache_clear()


@pytest.mark.parametrize("path", ["ufunc", "fallback"])
def test_binomial_pmf_is_byte_equal_to_scipy_stats(path, monkeypatch, cold_loader):
    binom = stats.binom
    counting = _CountingBinom(binom)
    monkeypatch.setattr(stats, "binom", counting)
    if path == "fallback":
        monkeypatch.setitem(sys.modules, "scipy.special._ufuncs", None)
    elif not _ufunc_importable():
        pytest.skip("scipy.special._ufuncs._binom_pmf is not importable")
    for n in range(41):
        for p in _PROBABILITIES:
            got = _binomial_pmf(n, p)
            expected = binom.pmf(np.arange(n + 1), n, p)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes(), (n, p)
    assert counting.calls == (41 * len(_PROBABILITIES) if path == "fallback" else 0)


def _grid_check(setup: str = "", report: str = "") -> dict:
    """In a fresh interpreter: run ``setup``, compute ``_binomial_pmf``
    over n = 0..40 and ``_PROBABILITIES``, note which ``scipy.special``
    modules that left loaded, then import ``scipy.stats`` and compare.
    ``report`` may add entries to the printed ``state``."""
    probabilities = json.dumps([float(p) for p in _PROBABILITIES])
    return _fresh(
        "import json, sys\n"
        "import numpy as np\n"
        "from repro.detection import pomdp\n"
        + setup
        + f"probabilities = json.loads({probabilities!r})\n"
        "got = {(n, p): pomdp._binomial_pmf(n, p) for n in range(41) for p in probabilities}\n"
        "ufunc = pomdp._binom_pmf_ufunc()\n"
        "state = {'package': 'scipy.special' in sys.modules,\n"
        "         'extension': 'scipy.special._ufuncs' in sys.modules}\n"
        "from scipy import stats\n"
        "import scipy.special\n"
        "expected = {(n, p): stats.binom.pmf(np.arange(n + 1), n, p) for n, p in got}\n"
        "state['mismatches'] = [\n"
        "    [n, p] for (n, p), pmf in got.items()\n"
        "    if pmf.dtype != expected[n, p].dtype\n"
        "    or pmf.tobytes() != expected[n, p].tobytes()\n"
        "]\n"
        "state['same_ufunc'] = scipy.special._ufuncs._binom_pmf is ufunc\n"
        + report
        + "print(json.dumps(state))\n"
    )


@needs_ufunc
def test_bare_load_is_byte_equal_to_scipy_stats_imported_later():
    """A process that never imported ``scipy.special`` loads the ufunc
    under a bare package; ``scipy.stats`` imported afterwards runs the
    real package init, binds the very same ufunc and gives the same
    bytes."""
    state = _grid_check()
    assert state["package"] is False and state["extension"] is True
    assert state["mismatches"] == []
    assert state["same_ufunc"] is True


@needs_ufunc
def test_process_holding_scipy_special_imports_the_ufunc_publicly():
    state = _fresh(
        "import json, sys\n"
        "import scipy.special\n"
        "from repro.detection import pomdp\n"
        "package, loaded = sys.modules['scipy.special'], sorted(sys.modules)\n"
        "bare_loads = []\n"
        "pomdp._bare_binom_pmf = lambda: bare_loads.append(1)\n"
        "ufunc = pomdp._binom_pmf_ufunc()\n"
        "print(json.dumps({\n"
        "    'bare_loads': len(bare_loads),\n"
        "    'same_package': sys.modules['scipy.special'] is package,\n"
        "    'same_modules': sorted(sys.modules) == loaded,\n"
        "    'same_ufunc': ufunc is scipy.special._ufuncs._binom_pmf,\n"
        "}))"
    )
    assert state == {
        "bare_loads": 0,
        "same_package": True,
        "same_modules": True,
        "same_ufunc": True,
    }


# Fails the bare load at its first import of a sibling extension once
# another sibling has loaded, records the siblings loaded by then, and
# what ``scipy.special`` modules the failed bare load left behind.
_FAIL_PARTWAY = """
class FailPartway:
    seen = None

    def find_spec(self, name, path=None, target=None):
        siblings = [
            m for m in sys.modules
            if m.startswith('scipy.special.') and m != 'scipy.special._ufuncs'
        ]
        if self.seen is None and siblings and name.startswith('scipy.special.'):
            self.seen = siblings
            raise ImportError('injected failure at ' + name)
        return None


finder = FailPartway()
sys.meta_path.insert(0, finder)
bare_load, bare_results = pomdp._bare_binom_pmf, []


def observed_bare_load():
    ufunc = bare_load()
    bare_results.append([ufunc is None, [m for m in sys.modules if m.startswith('scipy.special')]])
    return ufunc


pomdp._bare_binom_pmf = observed_bare_load
"""

_AFTER_FAILURE = """
package = sys.modules['scipy.special']
state['seen'] = sorted(finder.seen)
state['bare_results'] = bare_results
state['real_package'] = getattr(package, '__file__', None) is not None
state['bound'] = sorted(m for m in finder.seen if hasattr(package, m.rpartition('.')[2]))
state['initializing'] = [
    m for m, module in sys.modules.items()
    if m.startswith('scipy.special')
    and getattr(getattr(module, '__spec__', None), '_initializing', False)
]
"""


@needs_ufunc
def test_bare_load_failing_partway_falls_back_cleanly():
    """A bare load that fails after a sibling extension loaded leaves
    neither the bare package nor anything it loaded in ``sys.modules``:
    the public import then loads each sibling afresh under the real
    package (which binds it as an attribute) and gives the same bytes."""
    state = _grid_check(_FAIL_PARTWAY, _AFTER_FAILURE)
    assert state["seen"] != []  # the failure came partway
    assert state["bare_results"] == [[True, []]]
    assert state["package"] is True and state["real_package"] is True
    assert state["bound"] == state["seen"]
    assert state["initializing"] == []
    assert state["mismatches"] == []
    assert state["same_ufunc"] is True


def _reference_arrays(n_meters, hack_probability, tp_rate, fp_rate):
    """Transition and observation arrays assembled through scipy.stats."""

    def snap(p):
        return 0.0 if p < 1e-12 else 1.0 if p > 1.0 - 1e-12 else p

    n_states = n_meters + 1
    q, tp, fp = snap(hack_probability), snap(tp_rate), snap(fp_rate)
    transitions = np.zeros((2, n_states, n_states))
    observations = np.zeros((2, n_states, n_states))
    for s in range(n_states):
        clean = n_meters - s
        transitions[MONITOR, s, s:] = stats.binom.pmf(np.arange(clean + 1), clean, q)
        transitions[REPAIR, s, :] = stats.binom.pmf(np.arange(n_states), n_meters, q)
        pmf = np.convolve(
            stats.binom.pmf(np.arange(s + 1), s, tp),
            stats.binom.pmf(np.arange(clean + 1), clean, fp),
        )[:n_states]
        observations[:, s, :] = pmf / pmf.sum()
    return transitions, observations


@pytest.mark.parametrize("preset", [smoke_preset, bench_preset, paper_preset])
@pytest.mark.parametrize("tp_rate, fp_rate", [(0.75, 0.05), (0.9, 1e-13), (1.0, 0.0)])
def test_pomdp_arrays_are_byte_equal_to_scipy_stats(preset, tp_rate, fp_rate):
    detection = preset(seed=0).detection
    model = build_detection_pomdp(
        detection.n_monitored_meters,
        hack_probability=detection.hack_probability,
        tp_rate=tp_rate,
        fp_rate=fp_rate,
    )
    transitions, observations = _reference_arrays(
        detection.n_monitored_meters, detection.hack_probability, tp_rate, fp_rate
    )
    assert model.transitions.tobytes() == transitions.tobytes()
    assert model.observations.tobytes() == observations.tobytes()
