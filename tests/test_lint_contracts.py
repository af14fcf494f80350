"""Contract lint v2: cross-file rules, baseline lifecycle, SARIF, config.

The centerpiece tests are the regression demos: each contract rule is
pointed at a fixture tree re-introducing the historical bug class it was
built for — the PR 7 missing-``fast_path``-in-``content_key`` aliasing
bug for CACHE001 (including a copy of the *real* ``batch.py`` with the
line deleted), and an unbumped wire-field addition for WIRE003 — and
must fire. Around them: TOCTOU/lock-consistency/detector-conformance
fixture pairs, the findings-baseline add/resolve/stale lifecycle,
SARIF 2.1.0 output shape, LINT000 dead-suppression detection, and
fail-loud config validation.
"""

import json
import os

import pytest

from repro.analysis.lint import (
    CONTRACTS_BY_CODE,
    LintConfig,
    LintConfigError,
    load_config,
    render_json,
    render_sarif_result,
    render_text,
    rule_catalog,
    run_lint,
    update_baseline,
    update_wire_baseline,
)
from repro.cli import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_tree(tmp_path, files):
    """Write a fixture tree ({relpath: source}) under tmp_path."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")


def lint_tree(tmp_path, config=None, paths=None, profile=None):
    return run_lint(
        paths=paths,
        root=str(tmp_path),
        config=config or LintConfig(paths=(".",)),
        profile=profile,
    )


def codes(result):
    return [f.rule for f in result.findings]


def fixture_config(**rule_options):
    """A fixture-tree config with WIRE002 scoped away.

    The fixture classes deliberately reuse the production wire names
    (SessionSpec, Verdict) so the contract rules resolve them; scoping
    WIRE002 to a directory that does not exist keeps its unrelated
    payload-type findings out of these assertions.
    """
    options = {"WIRE002": {"include": ["no-such-dir"]}}
    options.update(rule_options)
    return LintConfig(paths=(".",), rule_options=options)


# ======================================================================
# CACHE001 — cache-key completeness (the PR 7 fast_path aliasing class)
# ======================================================================
SPEC_OK = '''\
import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class SessionSpec:
    program: str
    noise_seed: int = 0
    fast_path: bool = True
    label: str = ""
    cacheable: bool = True

    def content_key(self) -> str:
        digest = hashlib.sha256()
        digest.update(
            repr((self.program, self.noise_seed, self.fast_path)).encode()
        )
        return digest.hexdigest()
'''

# The PR 7 bug, re-introduced: fast_path exists but never reaches the digest.
SPEC_MISSING_FAST_PATH = SPEC_OK.replace(", self.fast_path", "")


class TestCache001:
    def test_regression_pr7_missing_fast_path_is_flagged(self, tmp_path):
        write_tree(tmp_path, {"batch.py": SPEC_MISSING_FAST_PATH})
        result = lint_tree(tmp_path, config=fixture_config())
        assert codes(result) == ["CACHE001"]
        (finding,) = result.findings
        assert "fast_path" in finding.message
        assert "content_key" in finding.message
        # Anchored at the field declaration, not the whole class.
        assert finding.line == 9

    def test_complete_key_is_clean(self, tmp_path):
        write_tree(tmp_path, {"batch.py": SPEC_OK})
        assert lint_tree(tmp_path, config=fixture_config()).ok

    def test_regression_pr7_on_the_real_batch_module(self, tmp_path):
        """Deleting the real batch.py's fast_path digest line must fire."""
        with open(
            os.path.join(REPO_ROOT, "src/repro/experiments/batch.py"),
            encoding="utf-8",
        ) as handle:
            source = handle.read()
        assert "self.fast_path,\n" in source
        broken = source.replace("self.fast_path,\n", "")
        write_tree(tmp_path, {"batch.py": broken})
        result = lint_tree(tmp_path)
        cache_findings = [f for f in result.findings if f.rule == "CACHE001"]
        assert len(cache_findings) == 1
        assert "fast_path" in cache_findings[0].message
        # The shipped (unmodified) module is clean.
        write_tree(tmp_path, {"batch.py": source})
        assert "CACHE001" not in codes(lint_tree(tmp_path))

    def test_missing_key_method_is_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "batch.py": (
                    "from dataclasses import dataclass\n\n"
                    "@dataclass\nclass SessionSpec:\n    program: str\n"
                )
            },
        )
        result = lint_tree(tmp_path, config=fixture_config())
        assert codes(result) == ["CACHE001"]
        assert "no content_key()" in result.findings[0].message

    def test_stale_exemption_is_flagged(self, tmp_path):
        config = fixture_config(
            CACHE001={"exempt-fields": ["label", "cacheable", "fast_path"]}
        )
        write_tree(tmp_path, {"batch.py": SPEC_OK})
        result = lint_tree(tmp_path, config=config)
        assert codes(result) == ["CACHE001"]
        assert "stale exemption" in result.findings[0].message

    def test_exempt_fields_do_not_fire(self, tmp_path):
        # label/cacheable are exempt by default and absent from the key.
        write_tree(tmp_path, {"batch.py": SPEC_OK})
        assert "CACHE001" not in codes(lint_tree(tmp_path))

    def test_suppression_applies_to_contract_findings(self, tmp_path):
        suppressed = SPEC_MISSING_FAST_PATH.replace(
            "    fast_path: bool = True",
            "    # repro: lint-ignore[CACHE001] demo waiver\n"
            "    fast_path: bool = True",
        )
        write_tree(tmp_path, {"batch.py": suppressed})
        result = lint_tree(tmp_path, config=fixture_config())
        assert result.ok
        assert [f.rule for f in result.suppressed] == ["CACHE001"]


# ======================================================================
# WIRE003 — wire-schema drift vs. the version constant
# ======================================================================
WIRE_V2 = '''\
from dataclasses import dataclass

WIRE_FORMAT = 2


@dataclass(frozen=True)
class Job:
    index: int
    name: str
'''


def wire_config(tmp_path):
    return LintConfig(
        paths=(".",),
        rule_options={
            "WIRE003": {
                "schema-file": "wire-schema.json",
                "protocols": {
                    "demo": {
                        "version": "wire.py::WIRE_FORMAT",
                        "classes": ["wire.py::Job"],
                    }
                },
            }
        },
    )


class TestWire003:
    def seed(self, tmp_path, source=WIRE_V2):
        write_tree(tmp_path, {"wire.py": source})
        config = wire_config(tmp_path)
        update_wire_baseline(root=str(tmp_path), config=config)
        return config

    def test_missing_baseline_asks_for_snapshot(self, tmp_path):
        write_tree(tmp_path, {"wire.py": WIRE_V2})
        result = lint_tree(tmp_path, config=wire_config(tmp_path))
        assert codes(result) == ["WIRE003"]
        assert "--update-wire-baseline" in result.findings[0].message

    def test_unchanged_schema_is_clean(self, tmp_path):
        config = self.seed(tmp_path)
        assert lint_tree(tmp_path, config=config).ok

    def test_regression_unbumped_field_addition_is_flagged(self, tmp_path):
        """Adding a wire field without bumping WIRE_FORMAT must fire."""
        config = self.seed(tmp_path)
        write_tree(
            tmp_path, {"wire.py": WIRE_V2.replace(
                "    name: str", "    name: str\n    retries: int = 0"
            )}
        )
        result = lint_tree(tmp_path, config=config)
        assert codes(result) == ["WIRE003"]
        (finding,) = result.findings
        assert "WIRE_FORMAT is still 2" in finding.message
        assert "class Job" in finding.message
        assert finding.path == "wire.py"

    def test_bumped_change_asks_for_baseline_refresh(self, tmp_path):
        config = self.seed(tmp_path)
        changed = WIRE_V2.replace("WIRE_FORMAT = 2", "WIRE_FORMAT = 3").replace(
            "    name: str", "    name: str\n    retries: int = 0"
        )
        write_tree(tmp_path, {"wire.py": changed})
        result = lint_tree(tmp_path, config=config)
        assert codes(result) == ["WIRE003"]
        assert "was bumped" in result.findings[0].message
        # Refreshing the baseline settles the new shape as canonical.
        update_wire_baseline(root=str(tmp_path), config=config)
        assert lint_tree(tmp_path, config=config).ok

    def test_version_bump_without_schema_change_wants_refresh(self, tmp_path):
        config = self.seed(tmp_path)
        write_tree(
            tmp_path,
            {"wire.py": WIRE_V2.replace("WIRE_FORMAT = 2", "WIRE_FORMAT = 3")},
        )
        result = lint_tree(tmp_path, config=config)
        assert codes(result) == ["WIRE003"]
        assert "still records the old version" in result.findings[0].message

    def test_field_reorder_counts_as_drift(self, tmp_path):
        config = self.seed(tmp_path)
        write_tree(
            tmp_path,
            {"wire.py": WIRE_V2.replace(
                "    index: int\n    name: str", "    name: str\n    index: int"
            )},
        )
        result = lint_tree(tmp_path, config=config)
        assert codes(result) == ["WIRE003"]

    def test_dict_shape_functions_and_constants_fingerprint(self, tmp_path):
        files = {
            "api.py": (
                "SCHEMA_VERSION = 1\n"
                "COLUMNS = (\"id\", \"state\")\n\n"
                "def job_json(job):\n"
                "    return {\"id\": job.id, \"state\": job.state}\n"
            )
        }
        write_tree(tmp_path, files)
        config = LintConfig(
            paths=(".",),
            rule_options={
                "WIRE003": {
                    "schema-file": "wire-schema.json",
                    "protocols": {
                        "api": {
                            "version": "api.py::SCHEMA_VERSION",
                            "functions": ["api.py::job_json"],
                            "constants": ["api.py::COLUMNS"],
                        }
                    },
                }
            },
        )
        update_wire_baseline(root=str(tmp_path), config=config)
        assert lint_tree(tmp_path, config=config).ok
        # A new job_json key without a version bump is drift.
        files["api.py"] = files["api.py"].replace(
            '"state": job.state}', '"state": job.state, "extra": 1}'
        )
        write_tree(tmp_path, files)
        result = lint_tree(tmp_path, config=config)
        assert codes(result) == ["WIRE003"]
        assert "job_json()" in result.findings[0].message

    def test_partial_run_does_not_false_positive(self, tmp_path):
        config = self.seed(tmp_path)
        write_tree(tmp_path, {"other.py": "x = 1\n"})
        # Linting only other.py: wire.py is not in the model, so the
        # protocol is skipped rather than reported as "removed".
        result = lint_tree(tmp_path, config=config, paths=["other.py"])
        assert result.ok

    def test_committed_repo_wire_baseline_matches_the_tree(self):
        """The committed .repro-wire-schema.json is in sync with src/."""
        result = run_lint(root=REPO_ROOT)
        assert [f for f in result.findings if f.rule == "WIRE003"] == []


# ======================================================================
# CONC001 — check-then-use (TOCTOU)
# ======================================================================
class TestConc001:
    def test_exists_then_open_fires(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "mod.py": (
                    "import os\n"
                    "def read(path):\n"
                    "    if os.path.exists(path):\n"
                    "        with open(path) as handle:\n"
                    "            return handle.read()\n"
                    "    return None\n"
                )
            },
        )
        result = lint_tree(tmp_path)
        assert codes(result) == ["CONC001"]
        assert "TOCTOU" in result.findings[0].message

    def test_eafp_is_clean(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "mod.py": (
                    "def read(path):\n"
                    "    try:\n"
                    "        with open(path) as handle:\n"
                    "            return handle.read()\n"
                    "    except FileNotFoundError:\n"
                    "        return None\n"
                )
            },
        )
        assert lint_tree(tmp_path).ok

    def test_exists_guarded_use_inside_oserror_try_is_clean(self, tmp_path):
        # The sanctioned work-dir idiom: probe for cheap skip, but the
        # use itself tolerates losing the race.
        write_tree(
            tmp_path,
            {
                "mod.py": (
                    "import os\n"
                    "def claim(path, dest):\n"
                    "    if os.path.exists(path):\n"
                    "        try:\n"
                    "            os.rename(path, dest)\n"
                    "        except OSError:\n"
                    "            return False\n"
                    "    return True\n"
                )
            },
        )
        assert lint_tree(tmp_path).ok

    def test_listdir_then_unlink_fires(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "mod.py": (
                    "import os\n"
                    "def reset(directory):\n"
                    "    for name in sorted(os.listdir(directory)):\n"
                    "        os.unlink(os.path.join(directory, name))\n"
                )
            },
        )
        result = lint_tree(tmp_path)
        assert codes(result) == ["CONC001"]
        assert "listdir" in result.findings[0].message

    def test_os_replace_is_not_a_flagged_use(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "mod.py": (
                    "import os\n"
                    "def publish(tmp, final):\n"
                    "    if os.path.exists(tmp):\n"
                    "        os.replace(tmp, final)\n"
                )
            },
        )
        assert lint_tree(tmp_path).ok

    def test_unrelated_paths_do_not_pair(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "mod.py": (
                    "import os\n"
                    "def read(a, b):\n"
                    "    if os.path.exists(a):\n"
                    "        with open(b) as handle:\n"
                    "            return handle.read()\n"
                )
            },
        )
        assert lint_tree(tmp_path).ok

    def test_shipped_work_dir_protocol_is_clean(self):
        """transport.py's claim/rename protocol passes its own new rule."""
        result = run_lint(
            paths=["src/repro/experiments/transport.py"], root=REPO_ROOT
        )
        assert [f for f in result.findings if f.rule == "CONC001"] == []


# ======================================================================
# CONC002 — lock-consistency
# ======================================================================
LOCKED_OK = '''\
import threading


class Store:
    def __init__(self):
        self._lock = threading.Lock()
        self._rows = []

    def add(self, row):
        with self._lock:
            self._rows.append(row)

    def snapshot(self):
        with self._lock:
            return list(self._rows)
'''

LOCKED_BAD = LOCKED_OK.replace(
    "    def snapshot(self):\n        with self._lock:\n            return list(self._rows)",
    "    def snapshot(self):\n        return list(self._rows)",
)


class TestConc002:
    def test_unlocked_access_of_guarded_attr_fires(self, tmp_path):
        write_tree(tmp_path, {"store.py": LOCKED_BAD})
        result = lint_tree(tmp_path)
        assert codes(result) == ["CONC002"]
        (finding,) = result.findings
        assert "self._rows" in finding.message
        assert "snapshot()" in finding.message

    def test_consistent_locking_is_clean(self, tmp_path):
        write_tree(tmp_path, {"store.py": LOCKED_OK})
        assert lint_tree(tmp_path).ok

    def test_init_is_exempt(self, tmp_path):
        # __init__ touches _rows lock-free by construction; that is fine.
        write_tree(tmp_path, {"store.py": LOCKED_OK})
        result = lint_tree(tmp_path)
        assert "CONC002" not in codes(result)

    def test_lockless_class_is_skipped(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "mod.py": (
                    "import queue\n\n"
                    "class Manager:\n"
                    "    def __init__(self):\n"
                    "        self._q = queue.Queue()\n"
                    "    def put(self, item):\n"
                    "        self._q.put(item)\n"
                    "    def get(self):\n"
                    "        return self._q.get()\n"
                )
            },
        )
        assert lint_tree(tmp_path).ok

    def test_shipped_job_store_is_lock_consistent(self):
        result = run_lint(paths=["src/repro/service"], root=REPO_ROOT)
        assert [f for f in result.findings if f.rule == "CONC002"] == []


# ======================================================================
# DET005 — Detector protocol conformance
# ======================================================================
DETECTORS_OK = '''\
from dataclasses import dataclass
from typing import Any, Optional


@dataclass(frozen=True)
class Verdict:
    detector: str
    trojan_likely: bool


class _FittedMixin:
    name = "detector"

    def fit(self, golden):
        self._golden = golden
        return self


class GoodDetector(_FittedMixin):
    name = "good"

    def score(self, suspect):
        return Verdict(detector=self.name, trojan_likely=False)


DETECTOR_CLASSES = {GoodDetector.name: GoodDetector}
'''


class TestDet005:
    def run(self, tmp_path, source):
        write_tree(tmp_path, {"protocol.py": source})
        config = fixture_config(
            DET005={"registry": "protocol.py::DETECTOR_CLASSES"}
        )
        return lint_tree(tmp_path, config=config)

    def test_conformant_registry_is_clean(self, tmp_path):
        assert self.run(tmp_path, DETECTORS_OK).ok

    def test_missing_score_fires(self, tmp_path):
        broken = DETECTORS_OK.replace(
            "    def score(self, suspect):\n"
            "        return Verdict(detector=self.name, trojan_likely=False)\n",
            "    pass\n",
        )
        result = self.run(tmp_path, broken)
        assert codes(result) == ["DET005"]
        assert "no score()" in result.findings[0].message

    def test_drifted_signature_fires(self, tmp_path):
        drifted = DETECTORS_OK.replace(
            "def score(self, suspect):", "def score(self, suspect, threshold):"
        )
        result = self.run(tmp_path, drifted)
        assert codes(result) == ["DET005"]
        assert "(self, suspect)" in result.findings[0].message

    def test_non_verdict_return_fires(self, tmp_path):
        wrong = DETECTORS_OK.replace(
            "        return Verdict(detector=self.name, trojan_likely=False)",
            "        return {\"detector\": self.name}",
        )
        result = self.run(tmp_path, wrong)
        assert codes(result) == ["DET005"]
        assert "Verdict" in result.findings[0].message

    def test_missing_name_fires(self, tmp_path):
        nameless = DETECTORS_OK.replace('    name = "good"\n', "").replace(
            '    name = "detector"\n\n', ""
        ).replace(
            "DETECTOR_CLASSES = {GoodDetector.name: GoodDetector}",
            'DETECTOR_CLASSES = {"good": GoodDetector}',
        ).replace(
            "return Verdict(detector=self.name, trojan_likely=False)",
            'return Verdict(detector="good", trojan_likely=False)',
        )
        result = self.run(tmp_path, nameless)
        assert codes(result) == ["DET005"]
        assert "`name`" in result.findings[0].message

    def test_fit_resolves_through_bases(self, tmp_path):
        # GoodDetector has no own fit(); the mixin's counts.
        assert self.run(tmp_path, DETECTORS_OK).ok

    def test_shipped_detector_registry_conforms(self):
        result = run_lint(paths=["src/repro/detection"], root=REPO_ROOT)
        assert [f for f in result.findings if f.rule == "DET005"] == []


# ======================================================================
# LINT000 — unknown rule ids in suppressions
# ======================================================================
class TestLint000:
    def test_unknown_code_fires(self, tmp_path):
        write_tree(
            tmp_path,
            {"mod.py": "x = 1  # repro: lint-ignore[DET0XX] typo'd waiver\n"},
        )
        result = lint_tree(tmp_path)
        assert codes(result) == ["LINT000"]
        assert "DET0XX" in result.findings[0].message

    def test_known_codes_do_not_fire(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "mod.py": (
                    "import time\n"
                    "t = time.time()  # repro: lint-ignore[DET003] measured\n"
                )
            },
        )
        assert lint_tree(tmp_path).ok

    def test_contract_codes_are_known(self, tmp_path):
        write_tree(
            tmp_path,
            {"mod.py": "x = 1  # repro: lint-ignore[CACHE001, WIRE003] demo\n"},
        )
        assert lint_tree(tmp_path).ok

    def test_docstrings_describing_the_syntax_do_not_fire(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "mod.py": (
                    '"""Suppress with ``# repro: lint-ignore[RULE]``."""\n'
                    "x = 1\n"
                )
            },
        )
        assert lint_tree(tmp_path).ok

    def test_star_is_known(self, tmp_path):
        write_tree(
            tmp_path,
            {"mod.py": "import time\nt = time.time()  # repro: lint-ignore[*] demo\n"},
        )
        assert lint_tree(tmp_path).ok


# ======================================================================
# Config validation — unknown keys/options fail loud
# ======================================================================
class TestConfigValidation:
    def test_unknown_top_level_key_raises(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro.lint]\npathz = [\"src\"]\n", encoding="utf-8"
        )
        with pytest.raises(LintConfigError) as excinfo:
            load_config(str(tmp_path))
        assert "pathz" in str(excinfo.value)
        assert "valid keys" in str(excinfo.value)

    def test_unknown_rule_option_raises_with_valid_options(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro.lint.WIRE002]\nwire-allowlst = []\n", encoding="utf-8"
        )
        with pytest.raises(LintConfigError) as excinfo:
            load_config(str(tmp_path))
        message = str(excinfo.value)
        assert "wire-allowlst" in message
        assert "wire-allowlist" in message  # the valid spelling is offered

    def test_unknown_rule_table_raises(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro.lint.DET999]\ninclude = [\"src\"]\n", encoding="utf-8"
        )
        with pytest.raises(LintConfigError):
            load_config(str(tmp_path))

    def test_profile_unknown_disable_code_raises(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro.lint.profile.tests]\ndisable = [\"DET03\"]\n",
            encoding="utf-8",
        )
        with pytest.raises(LintConfigError) as excinfo:
            load_config(str(tmp_path))
        assert "DET03" in str(excinfo.value)

    def test_unknown_profile_name_at_run_time_raises(self, tmp_path):
        with pytest.raises(LintConfigError) as excinfo:
            run_lint(root=str(tmp_path), config=LintConfig(), profile="nope")
        assert "nope" in str(excinfo.value)

    def test_cli_exits_2_on_config_error(self, tmp_path, capsys):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro.lint]\npathz = [\"src\"]\n", encoding="utf-8"
        )
        (tmp_path / "mod.py").write_text("x = 1\n", encoding="utf-8")
        assert main(["lint", "mod.py", "--root", str(tmp_path)]) == 2
        assert "lint config error" in capsys.readouterr().err

    def test_missing_pyproject_means_defaults(self, tmp_path):
        assert load_config(str(tmp_path)) == LintConfig()

    def test_repo_pyproject_validates(self):
        config = load_config(REPO_ROOT)
        assert config.paths == ("src", "scripts", "benchmarks")
        assert config.baseline == ".repro-lint-baseline.json"
        assert "tests" in config.profiles


# ======================================================================
# Profiles
# ======================================================================
class TestProfiles:
    def config(self):
        return LintConfig(
            paths=("src",),
            profiles={
                "tests": __import__(
                    "repro.analysis.lint", fromlist=["LintProfile"]
                ).LintProfile(paths=("tests",), disable=("DET003",))
            },
        )

    def test_profile_rescopes_paths_and_disables_rules(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/mod.py": "import time\nt = time.time()\n",
                "tests/test_mod.py": (
                    "import time\nimport pickle\n"
                    "def save(path, payload):\n"
                    "    t = time.time()\n"
                    "    with open(path, \"wb\") as handle:\n"
                    "        pickle.dump(payload, handle)\n"
                ),
            },
        )
        config = self.config()
        default = lint_tree(tmp_path, config=config)
        assert codes(default) == ["DET003"]
        profiled = lint_tree(tmp_path, config=config, profile="tests")
        # DET003 is disabled, WIRE001 stays on, and only tests/ is scanned.
        assert codes(profiled) == ["WIRE001", "WIRE001"]
        assert all(f.path.startswith("tests/") for f in profiled.findings)


# ======================================================================
# Baseline lifecycle — add, warn, resolve, stale, prune
# ======================================================================
BAD_MOD = "key = hash(name)\n"


def baseline_config():
    return LintConfig(paths=(".",), baseline="lint-baseline.json")


class TestBaselineLifecycle:
    def test_new_finding_fails_without_baseline(self, tmp_path):
        write_tree(tmp_path, {"mod.py": BAD_MOD})
        result = lint_tree(tmp_path, config=baseline_config())
        assert not result.ok
        assert codes(result) == ["DET001"]

    def test_update_then_rerun_warns_instead_of_failing(self, tmp_path):
        write_tree(tmp_path, {"mod.py": BAD_MOD})
        config = baseline_config()
        path, count = update_baseline(root=str(tmp_path), config=config)
        assert count == 1
        entries = json.loads(open(path, encoding="utf-8").read())["entries"]
        assert entries[0]["rule"] == "DET001"
        assert "TODO" in entries[0]["justification"]
        result = lint_tree(tmp_path, config=config)
        assert result.ok
        assert [f.rule for f, _ in result.baselined] == ["DET001"]
        assert "baselined" in render_text(result)

    def test_baselined_findings_carry_their_justification(self, tmp_path):
        write_tree(tmp_path, {"mod.py": BAD_MOD})
        config = baseline_config()
        path, _ = update_baseline(root=str(tmp_path), config=config)
        data = json.loads(open(path, encoding="utf-8").read())
        data["entries"][0]["justification"] = "legacy key; tracked in #42"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        result = lint_tree(tmp_path, config=config)
        (pair,) = result.baselined
        assert pair[1].justification == "legacy key; tracked in #42"
        payload = json.loads(render_json(result))
        assert payload["baselined"][0]["justification"] == (
            "legacy key; tracked in #42"
        )

    def test_justification_survives_update(self, tmp_path):
        write_tree(tmp_path, {"mod.py": BAD_MOD})
        config = baseline_config()
        path, _ = update_baseline(root=str(tmp_path), config=config)
        data = json.loads(open(path, encoding="utf-8").read())
        data["entries"][0]["justification"] = "kept on purpose"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        update_baseline(root=str(tmp_path), config=config)
        data = json.loads(open(path, encoding="utf-8").read())
        assert data["entries"][0]["justification"] == "kept on purpose"

    def test_new_finding_still_fails_alongside_baselined_one(self, tmp_path):
        write_tree(tmp_path, {"mod.py": BAD_MOD})
        config = baseline_config()
        update_baseline(root=str(tmp_path), config=config)
        write_tree(tmp_path, {"other.py": "import time\nt = time.time()\n"})
        result = lint_tree(tmp_path, config=config)
        assert codes(result) == ["DET003"]  # the new one fails
        assert [f.rule for f, _ in result.baselined] == ["DET001"]

    def test_fixed_finding_reports_stale_entry(self, tmp_path):
        write_tree(tmp_path, {"mod.py": BAD_MOD})
        config = baseline_config()
        update_baseline(root=str(tmp_path), config=config)
        write_tree(
            tmp_path,
            {"mod.py": "import zlib\nkey = zlib.crc32(name.encode())\n"},
        )
        result = lint_tree(tmp_path, config=config)
        assert result.ok  # stale entries warn, they do not fail
        assert [entry.rule for entry in result.stale_baseline] == ["DET001"]
        assert "stale baseline entry" in render_text(result)

    def test_update_prunes_stale_entries(self, tmp_path):
        write_tree(tmp_path, {"mod.py": BAD_MOD})
        config = baseline_config()
        path, _ = update_baseline(root=str(tmp_path), config=config)
        write_tree(tmp_path, {"mod.py": "x = 1\n"})
        _, count = update_baseline(root=str(tmp_path), config=config)
        assert count == 0
        assert json.loads(open(path, encoding="utf-8").read())["entries"] == []

    def test_malformed_baseline_fails_loud(self, tmp_path):
        write_tree(tmp_path, {"mod.py": "x = 1\n"})
        (tmp_path / "lint-baseline.json").write_text("[]", encoding="utf-8")
        with pytest.raises(LintConfigError):
            lint_tree(tmp_path, config=baseline_config())

    def test_update_baseline_requires_configured_path(self, tmp_path):
        with pytest.raises(LintConfigError):
            update_baseline(root=str(tmp_path), config=LintConfig(paths=(".",)))

    def test_cli_update_baseline_round_trip(self, tmp_path, capsys):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro.lint]\n"
            'paths = ["."]\n'
            'baseline = "lint-baseline.json"\n',
            encoding="utf-8",
        )
        write_tree(tmp_path, {"mod.py": BAD_MOD})
        assert main(["lint", "--root", str(tmp_path)]) == 1
        assert main(["lint", "--root", str(tmp_path), "--update-baseline"]) == 0
        assert main(["lint", "--root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "baselined" in out


# ======================================================================
# SARIF 2.1.0 output
# ======================================================================
class TestSarif:
    def test_document_shape(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "mod.py": (
                    "import time\n"
                    "a = hash(b)\n"
                    "t = time.time()  # repro: lint-ignore[DET003] measured\n"
                )
            },
        )
        result = lint_tree(tmp_path)
        document = json.loads(render_sarif_result(result))
        assert document["version"] == "2.1.0"
        assert document["$schema"].endswith("sarif-schema-2.1.0.json")
        (run,) = document["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        rule_ids = {rule["id"] for rule in driver["rules"]}
        # Both registries are described, contract rules included.
        assert {"DET001", "CACHE001", "WIRE003", "CONC001", "CONC002",
                "DET005", "LINT000"} <= rule_ids
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]
            assert rule["fullDescription"]["text"]
        new = [r for r in run["results"] if r.get("baselineState") == "new"]
        (finding,) = new
        assert finding["ruleId"] == "DET001"
        assert finding["level"] == "error"
        location = finding["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "mod.py"
        assert location["region"]["startLine"] == 2
        assert location["region"]["startColumn"] >= 1
        notes = [r for r in run["results"] if r["level"] == "note"]
        (note,) = notes
        assert note["suppressions"][0]["kind"] == "inSource"

    def test_baselined_findings_are_warnings_with_unchanged_state(
        self, tmp_path
    ):
        write_tree(tmp_path, {"mod.py": BAD_MOD})
        config = baseline_config()
        update_baseline(root=str(tmp_path), config=config)
        result = lint_tree(tmp_path, config=config)
        document = json.loads(render_sarif_result(result))
        (entry,) = document["runs"][0]["results"]
        assert entry["level"] == "warning"
        assert entry["baselineState"] == "unchanged"
        assert "baselined" in entry["message"]["text"]

    def test_cli_writes_sarif_file(self, tmp_path, capsys):
        write_tree(tmp_path, {"mod.py": BAD_MOD})
        out = tmp_path / "lint.sarif"
        code = main(
            ["lint", "mod.py", "--root", str(tmp_path), "--sarif", str(out)]
        )
        assert code == 1  # findings still fail the run
        document = json.loads(out.read_text(encoding="utf-8"))
        assert document["version"] == "2.1.0"
        assert document["runs"][0]["results"]


# ======================================================================
# Catalog / registry coherence
# ======================================================================
def test_contract_rules_are_in_the_catalog():
    catalog = rule_catalog()
    for code, cls in CONTRACTS_BY_CODE.items():
        assert code in catalog
        assert cls.summary in catalog
        assert "contract rule (cross-file)" in catalog
        assert cls.rationale and cls.fix and cls.name
