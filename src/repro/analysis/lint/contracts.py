"""Pass 2 of the two-pass analyzer: cross-file **contract rules**.

Where the per-file rules (:mod:`repro.analysis.lint.rules`) catch local
patterns, every rule here proves a *relationship between distant pieces
of code* — each one the static form of a contract violation this repo
has already lived through or is about to expose to third parties:

* **CACHE001** — cache-key completeness. Adding ``fast_path`` to
  :class:`SessionSpec` meant *remembering* to fold it into
  ``content_key()`` by hand; forgetting would have aliased fast and
  precise sessions under one cache key and served wrong summaries
  forever. The rule inventories the spec dataclass's
  fields and requires each to be consumed by the key method or carry an
  explicit config exemption.
* **WIRE003** — wire-schema drift. The work-dir protocol's
  ``WIRE_FORMAT``, the session cache's ``_CACHE_FORMAT``, and the
  service store's ``PRAGMA user_version`` are bumped *by convention*
  when their payload shapes change. The rule fingerprints the declared
  fields of every wire-payload class (plus the service ``job_json``
  shape and the verdict-row column schema) into a committed baseline
  and fails when the fingerprint moves without the matching version
  constant moving with it.
* **CONC001** — check-then-use (TOCTOU) on filesystem paths. The
  work-dir protocol is safe *because* every transition is an atomic
  rename wrapped in EAFP ``try/except OSError``; an ``os.path.exists``
  probe followed by an ``open``/``rename`` on the same path reopens the
  race a pluggable Transport backend would hit first. Uses inside a
  ``try`` that catches ``OSError``/``FileNotFoundError`` — the
  sanctioned idiom — are exempt, as are ``os.replace`` and the
  ``repro.util.atomic_write`` helpers.
* **CONC002** — lock-consistency for shared mutable state. A class that
  owns a ``threading.Lock``/``RLock`` and touches an attribute under it
  in one method must not touch the same attribute lock-free in another
  (``__init__``, which runs before any thread exists, is excluded).
  This is what keeps service/executor threads honest around the SQLite
  job store.
* **DET005** — Detector protocol conformance. Every class registered in
  ``DETECTOR_CLASSES`` must resolve ``fit(self, golden)`` and
  ``score(self, suspect)`` (directly or via bases), expose a string
  ``name``, and return :class:`Verdict` constructions from ``score`` —
  so a drifting detector fails lint instead of failing a sweep at
  runtime.

Contract rules subclass :class:`ProjectRule` and run once per lint run
against the :class:`~repro.analysis.lint.project.ProjectModel`; their
findings anchor to real file/line locations, so the ordinary
suppression and baseline machinery applies unchanged.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Type

from repro.analysis.lint.project import ClassInfo, ProjectModel
from repro.analysis.lint.rules import Finding, Rule, _dotted


class ProjectRule(Rule):
    """A rule that checks the whole project model instead of one module."""

    def check(self, module) -> List[Finding]:  # pragma: no cover - not used
        return []

    def project_check(self, project: ProjectModel, root: str) -> List[Finding]:
        raise NotImplementedError

    def node_finding(
        self, path: str, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.code,
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


def _split_ref(ref: str) -> Tuple[str, str]:
    """Parse a ``path::Name`` contract reference from the config."""
    path, _, name = ref.partition("::")
    return path, name


# ----------------------------------------------------------------------
# CACHE001 — cache-key completeness
# ----------------------------------------------------------------------
class CacheKeyCompletenessRule(ProjectRule):
    code = "CACHE001"
    name = "cache-key-completeness"
    summary = "every session-spec field must be consumed by the content key or be exempt"
    rationale = (
        "SessionSpec.content_key() is the session cache's identity: any field "
        "that changes the simulated outcome but is missing from the digest "
        "aliases two different sessions under one key, and the cache serves "
        "the wrong summary forever after. Adding fast_path meant remembering "
        "to fold it into the key by hand; this rule makes forgetting a "
        "lint failure. Fields that are presentation or policy (label, "
        "cacheable) carry an explicit exemption in [tool.repro.lint.CACHE001]."
    )
    fix = (
        "fold the field into content_key(), or add it to the CACHE001 "
        "exempt-fields config with a justification comment"
    )
    option_keys = ("include", "exempt", "spec-class", "key-method", "exempt-fields")

    def project_check(self, project: ProjectModel, root: str) -> List[Finding]:
        spec_name = self.options.get("spec-class", "SessionSpec")
        key_method = self.options.get("key-method", "content_key")
        exempt = set(self.options.get("exempt-fields", ("label", "cacheable")))
        info = project.find_class(spec_name)
        if info is None:
            return []  # partial run: the spec class was not parsed this run
        findings: List[Finding] = []
        resolved = project.resolve_method(info, key_method)
        if resolved is None:
            return [
                self.node_finding(
                    info.path,
                    info.node,
                    f"{spec_name} defines no {key_method}() — the cache has "
                    "no content identity for its sessions",
                )
            ]
        _owner, method = resolved
        consumed = {
            node.attr
            for node in ast.walk(method)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        }
        for field in info.fields:
            if field.name in consumed:
                if field.name in exempt:
                    findings.append(
                        Finding(
                            rule=self.code,
                            path=info.path,
                            line=field.line,
                            col=field.col,
                            message=(
                                f"{spec_name}.{field.name} is exempted from "
                                f"{key_method}() in the CACHE001 config but IS "
                                "consumed by it — remove the stale exemption"
                            ),
                        )
                    )
                continue
            if field.name in exempt:
                continue
            findings.append(
                Finding(
                    rule=self.code,
                    path=info.path,
                    line=field.line,
                    col=field.col,
                    message=(
                        f"{spec_name}.{field.name} is not consumed by "
                        f"{key_method}(): two sessions differing only in "
                        f"{field.name} would share one cache key (the PR 7 "
                        "fast_path aliasing class). Fold it into the digest "
                        "or exempt it with a justification"
                    ),
                )
            )
        return findings


# ----------------------------------------------------------------------
# WIRE003 — wire-schema drift vs. version constants
# ----------------------------------------------------------------------
class WireSchemaDriftRule(ProjectRule):
    code = "WIRE003"
    name = "wire-schema-drift"
    summary = "wire-payload shapes changed without bumping the protocol's version constant"
    rationale = (
        "Every pickled/stored payload family carries a version constant "
        "(WIRE_FORMAT for the work dir, _CACHE_FORMAT for the session cache, "
        "SERVICE_SCHEMA_VERSION for the job store) so skewed hosts fail loud "
        "instead of deserializing garbage — but the bump itself is enforced "
        "only by changelog discipline. This rule fingerprints each protocol's "
        "declared shapes (dataclass fields, the job_json dict shape, the "
        "verdict-row column tuple) into a committed baseline "
        "(.repro-wire-schema.json) and fails when the fingerprint moves while "
        "the version constant stands still."
    )
    fix = (
        "bump the protocol's version constant, then refresh the committed "
        "baseline with `repro lint --update-wire-baseline`"
    )
    option_keys = ("include", "exempt", "schema-file", "protocols")

    DEFAULT_SCHEMA_FILE = ".repro-wire-schema.json"

    def project_check(self, project: ProjectModel, root: str) -> List[Finding]:
        protocols = self.options.get("protocols", {})
        if not protocols:
            return []
        schema_path = os.path.join(
            root, self.options.get("schema-file", self.DEFAULT_SCHEMA_FILE)
        )
        recorded = load_wire_baseline(schema_path)
        findings: List[Finding] = []
        for name in sorted(protocols):
            findings.extend(
                self._check_protocol(
                    project, name, protocols[name], recorded.get(name)
                )
            )
        return findings

    def _check_protocol(
        self,
        project: ProjectModel,
        name: str,
        spec: Mapping[str, Any],
        recorded: Optional[Mapping[str, Any]],
    ) -> List[Finding]:
        snapshot = snapshot_protocol(project, spec)
        if snapshot is None:
            return []  # partial run: some declaring file was not parsed
        version_path, version_name = _split_ref(str(spec.get("version", "")))
        const = project.find_constant(version_name, path=version_path)
        if const is None:
            module = project.modules.get(version_path)
            anchor = module.tree if module is not None else None
            return [
                Finding(
                    rule=self.code,
                    path=version_path,
                    line=getattr(anchor, "lineno", 1) if anchor else 1,
                    col=0,
                    message=(
                        f"protocol {name!r}: version constant {version_name} "
                        f"not found in {version_path} — the wire format has "
                        "no fail-loud version to bump"
                    ),
                )
            ]
        if recorded is None:
            return [
                Finding(
                    rule=self.code,
                    path=const.path,
                    line=const.line,
                    col=const.col,
                    message=(
                        f"protocol {name!r} has no committed wire-schema "
                        "baseline; run `repro lint --update-wire-baseline` "
                        "and commit the schema file"
                    ),
                )
            ]
        same_fp = snapshot["fingerprint"] == recorded.get("fingerprint")
        same_version = snapshot["version"] == recorded.get("version")
        if same_fp and same_version:
            return []
        if same_fp:
            return [
                Finding(
                    rule=self.code,
                    path=const.path,
                    line=const.line,
                    col=const.col,
                    message=(
                        f"protocol {name!r}: {version_name} moved "
                        f"({recorded.get('version')!r} -> {const.value!r}) "
                        "but the committed baseline still records the old "
                        "version; refresh it with "
                        "`repro lint --update-wire-baseline`"
                    ),
                )
            ]
        if not same_version:
            return [
                Finding(
                    rule=self.code,
                    path=const.path,
                    line=const.line,
                    col=const.col,
                    message=(
                        f"protocol {name!r}: wire schema changed and "
                        f"{version_name} was bumped "
                        f"({recorded.get('version')!r} -> {const.value!r}); "
                        "refresh the committed baseline with "
                        "`repro lint --update-wire-baseline` so the next "
                        "drift is caught"
                    ),
                )
            ]
        # The real bug class: schema moved, version did not.
        findings: List[Finding] = []
        old_declares = dict(recorded.get("declares", {}))
        for entry, lines in sorted(snapshot["declares"].items()):
            old = old_declares.pop(entry, None)
            if old == lines:
                continue
            anchor = self._anchor_for(project, spec, entry)
            change = "changed" if old is not None else "was added to the wire"
            findings.append(
                Finding(
                    rule=self.code,
                    path=anchor[0],
                    line=anchor[1],
                    col=anchor[2],
                    message=(
                        f"protocol {name!r}: declared wire shape of {entry} "
                        f"{change} but {version_name} is still "
                        f"{const.value!r} in {const.path} — a skewed host "
                        "would deserialize the new shape silently; bump the "
                        "version and refresh the baseline "
                        "(`repro lint --update-wire-baseline`)"
                    ),
                )
            )
        for entry in sorted(old_declares):
            findings.append(
                Finding(
                    rule=self.code,
                    path=const.path,
                    line=const.line,
                    col=const.col,
                    message=(
                        f"protocol {name!r}: {entry} left the wire schema but "
                        f"{version_name} is still {const.value!r}; bump it "
                        "and refresh the baseline"
                    ),
                )
            )
        return findings

    @staticmethod
    def _anchor_for(
        project: ProjectModel, spec: Mapping[str, Any], entry: str
    ) -> Tuple[str, int, int]:
        """Best-effort source location for one declared entry."""
        for ref in spec.get("classes", ()):
            path, name = _split_ref(ref)
            if f"class {name}" == entry:
                info = project.find_class(name, path=path)
                if info is not None:
                    return info.path, info.line, info.node.col_offset
        for ref in spec.get("functions", ()):
            path, name = _split_ref(ref)
            if f"{name}()" == entry:
                found = project.find_function(name, path=path)
                if found is not None:
                    return found[0], found[1].lineno, found[1].col_offset
        for ref in spec.get("constants", ()):
            path, name = _split_ref(ref)
            if name == entry:
                const = project.find_constant(name, path=path)
                if const is not None:
                    return const.path, const.line, const.col
        version_path, _ = _split_ref(str(spec.get("version", "")))
        return version_path, 1, 0


def snapshot_protocol(
    project: ProjectModel, spec: Mapping[str, Any]
) -> Optional[Dict[str, Any]]:
    """One protocol's current declared shapes + fingerprint.

    Returns ``None`` when any referenced file is absent from the model —
    the partial-run guard: a fingerprint over half the declarations would
    "drift" against the committed full one and spray false findings.
    """
    refs = (
        [str(spec.get("version", ""))]
        + [str(r) for r in spec.get("classes", ())]
        + [str(r) for r in spec.get("functions", ())]
        + [str(r) for r in spec.get("constants", ())]
    )
    for ref in refs:
        path, _ = _split_ref(ref)
        if path and path not in project.modules:
            return None

    declares: Dict[str, List[str]] = {}
    for ref in spec.get("classes", ()):
        path, name = _split_ref(str(ref))
        info = project.find_class(name, path=path)
        if info is not None:
            declares[f"class {name}"] = info.field_lines()
    for ref in spec.get("functions", ()):
        path, name = _split_ref(str(ref))
        found = project.find_function(name, path=path)
        if found is not None:
            declares[f"{name}()"] = _dict_shape(found[1])
    for ref in spec.get("constants", ()):
        path, name = _split_ref(str(ref))
        const = project.find_constant(name, path=path)
        if const is not None:
            value = const.value
            items = list(value) if isinstance(value, (list, tuple)) else [value]
            declares[name] = [repr(item) for item in items]

    version_path, version_name = _split_ref(str(spec.get("version", "")))
    const = project.find_constant(version_name, path=version_path)
    digest = hashlib.sha256(
        repr(sorted(declares.items())).encode()
    ).hexdigest()
    return {
        "version": const.value if const is not None else None,
        "fingerprint": digest,
        "declares": declares,
    }


def _dict_shape(func: ast.FunctionDef) -> List[str]:
    """The constant keys of the dict literal(s) a shape function returns."""
    keys: List[str] = []
    for node in ast.walk(func):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
            for key in node.value.keys:
                if isinstance(key, ast.Constant):
                    keys.append(repr(key.value))
    return keys or ["<no dict-literal return>"]


def wire_schema_snapshot(
    project: ProjectModel, protocols: Mapping[str, Mapping[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """Current snapshots for every configured protocol (baseline refresh)."""
    out: Dict[str, Dict[str, Any]] = {}
    for name in sorted(protocols):
        snapshot = snapshot_protocol(project, protocols[name])
        if snapshot is not None:
            out[name] = snapshot
    return out


def load_wire_baseline(path: str) -> Dict[str, Any]:
    """The committed wire-schema baseline ({} when absent/unreadable)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return {}
    protocols = data.get("protocols")
    return dict(protocols) if isinstance(protocols, dict) else {}


# ----------------------------------------------------------------------
# CONC001 — check-then-use (TOCTOU) on filesystem paths
# ----------------------------------------------------------------------
_GUARD_CALLS = {
    "os.path.exists",
    "os.path.isfile",
    "os.path.isdir",
    "os.path.lexists",
}
_USE_CALLS = {
    "open": (0,),
    "io.open": (0,),
    "os.rename": (0, 1),
    "os.unlink": (0,),
    "os.remove": (0,),
    "os.rmdir": (0,),
}
_EAFP_EXCEPTIONS = {
    "OSError",
    "IOError",
    "FileNotFoundError",
    "FileExistsError",
    "PermissionError",
    "NotADirectoryError",
    "IsADirectoryError",
    "Exception",
    "BaseException",
}


class ToctouRule(ProjectRule):
    code = "CONC001"
    name = "check-then-use"
    summary = "exists/listdir probe followed by open/rename/unlink on the same path"
    rationale = (
        "The work-dir protocol stays race-free because it never trusts a "
        "stat: claims are atomic renames and every filesystem use is wrapped "
        "in EAFP try/except OSError, so a concurrent worker winning the race "
        "degrades to a harmless miss. An os.path.exists() probe followed by "
        "an open()/os.rename()/os.unlink() on the same path re-opens the "
        "window — the file can vanish or appear between check and use, which "
        "is exactly the class of bug a third-party Transport backend would "
        "introduce first. Uses inside a try that catches OSError/"
        "FileNotFoundError, plus os.replace and the repro.util.atomic_write "
        "helpers, are the sanctioned idioms and are not flagged."
    )
    fix = (
        "drop the probe and handle the failure: try/except FileNotFoundError "
        "(EAFP), or route the write through os.replace/atomic_write"
    )

    def project_check(self, project: ProjectModel, root: str) -> List[Finding]:
        findings: List[Finding] = []
        for path in sorted(project.modules):
            if not self.applies_to(path):
                continue
            module = project.modules[path]
            imports = project.imports[path]
            for scope in self._scopes(module.tree):
                self._check_scope(path, scope, imports, findings)
        return findings

    @staticmethod
    def _scopes(tree: ast.Module):
        yield tree
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    def _check_scope(
        self,
        path: str,
        scope: ast.AST,
        imports: Dict[str, str],
        findings: List[Finding],
    ) -> None:
        guards: Dict[str, Tuple[int, str]] = {}
        listdir_vars: Dict[str, int] = {}

        def catches_eafp(handler: ast.ExceptHandler) -> bool:
            if handler.type is None:
                return True
            elts = (
                handler.type.elts
                if isinstance(handler.type, ast.Tuple)
                else [handler.type]
            )
            for el in elts:
                name = el.id if isinstance(el, ast.Name) else getattr(el, "attr", "")
                if name in _EAFP_EXCEPTIONS:
                    return True
            return False

        def expr_key(node: ast.AST) -> Optional[str]:
            try:
                return ast.unparse(node)
            except Exception:
                return None

        def is_listdir(node: ast.AST) -> bool:
            if isinstance(node, ast.Call):
                dotted = _dotted(node.func, imports)
                if dotted == "os.listdir":
                    return True
                # sorted(os.listdir(...)) — the common deterministic form.
                if dotted == "sorted" and node.args:
                    return is_listdir(node.args[0])
            return False

        def handle_call(node: ast.Call, protected: bool) -> None:
            dotted = _dotted(node.func, imports)
            if dotted in _GUARD_CALLS and node.args:
                key = expr_key(node.args[0])
                if key is not None:
                    guards.setdefault(key, (node.lineno, dotted))
                return
            arg_indexes = _USE_CALLS.get(dotted or "")
            if arg_indexes is None or protected:
                return
            for index in arg_indexes:
                if index >= len(node.args):
                    continue
                arg = node.args[index]
                key = expr_key(arg)
                if key is not None and key in guards:
                    guard_line, guard_call = guards[key]
                    findings.append(
                        self.node_finding(
                            path,
                            node,
                            f"{dotted}({key}) after {guard_call}() on the "
                            f"same path at line {guard_line} is check-then-"
                            "use (TOCTOU): the path can change between the "
                            "probe and the use. Use try/except "
                            "FileNotFoundError or the atomic "
                            "os.replace/atomic_write idiom",
                        )
                    )
                    return
                for inner in ast.walk(arg):
                    if isinstance(inner, ast.Name) and inner.id in listdir_vars:
                        findings.append(
                            self.node_finding(
                                path,
                                node,
                                f"{dotted}() on {inner.id!r} from the "
                                f"os.listdir() at line "
                                f"{listdir_vars[inner.id]} is check-then-use "
                                "(TOCTOU): a listed entry can vanish before "
                                "the use. Wrap the use in try/except OSError "
                                "(the work-dir idiom) or use os.replace",
                            )
                        )
                        return

        def visit(node: ast.AST, protected: bool) -> None:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ) and node is not scope:
                return  # nested scopes are analyzed on their own
            if isinstance(node, ast.Try):
                body_protected = protected or any(
                    catches_eafp(h) for h in node.handlers
                )
                for child in node.body:
                    visit(child, body_protected)
                for handler in node.handlers:
                    for child in handler.body:
                        visit(child, protected)
                for child in node.orelse + node.finalbody:
                    visit(child, protected)
                return
            if isinstance(node, ast.For) and is_listdir(node.iter):
                for target in ast.walk(node.target):
                    if isinstance(target, ast.Name):
                        listdir_vars[target.id] = node.lineno
            elif isinstance(node, ast.Assign) and is_listdir(node.value):
                for target_node in node.targets:
                    for target in ast.walk(target_node):
                        if isinstance(target, ast.Name):
                            listdir_vars[target.id] = node.lineno
            if isinstance(node, ast.Call):
                handle_call(node, protected)
            for child in ast.iter_child_nodes(node):
                visit(child, protected)

        for child in ast.iter_child_nodes(scope):
            visit(child, False)


# ----------------------------------------------------------------------
# CONC002 — lock-consistency for shared mutable state
# ----------------------------------------------------------------------
class LockConsistencyRule(ProjectRule):
    code = "CONC002"
    name = "lock-consistency"
    summary = "an attribute guarded by the class lock elsewhere is accessed lock-free"
    rationale = (
        "The job store's contract is one connection behind one lock: "
        "submissions arrive on request threads while the executor thread "
        "writes progress. The dangerous edit is not forgetting locks "
        "entirely — it is adding one new method that touches self._conn "
        "without `with self._lock`. This rule infers, per class owning a "
        "threading.Lock/RLock, the set of attributes accessed under that "
        "lock, and flags any access of those same attributes outside it "
        "(RacerD-style consistency checking). __init__ is excluded: it runs "
        "before the object is visible to any other thread."
    )
    fix = "wrap the access in `with self._lock:` (or confine the state to one thread)"

    _LOCK_FACTORIES = {"threading.Lock", "threading.RLock"}

    def project_check(self, project: ProjectModel, root: str) -> List[Finding]:
        findings: List[Finding] = []
        for path in sorted(project.modules):
            if not self.applies_to(path):
                continue
            module = project.modules[path]
            imports = project.imports[path]
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    self._check_class(path, node, imports, findings)
        return findings

    def _check_class(
        self,
        path: str,
        cls: ast.ClassDef,
        imports: Dict[str, str],
        findings: List[Finding],
    ) -> None:
        methods = [
            item
            for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        method_names = {m.name for m in methods}
        lock_attrs: Set[str] = set()
        for method in methods:
            for node in ast.walk(method):
                if (
                    isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)
                    and _dotted(node.value.func, imports) in self._LOCK_FACTORIES
                ):
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            lock_attrs.add(target.attr)
        if not lock_attrs:
            return

        # (attr, locked, node, method-name) for every self.<attr> touch.
        accesses: List[Tuple[str, bool, ast.Attribute, str]] = []

        def is_lock_expr(node: ast.AST) -> bool:
            return (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in lock_attrs
            )

        def visit(node: ast.AST, locked: bool, method_name: str) -> None:
            if isinstance(node, ast.With) and any(
                is_lock_expr(item.context_expr) for item in node.items
            ):
                for child in node.body:
                    visit(child, True, method_name)
                return
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr not in lock_attrs
                and node.attr not in method_names
            ):
                accesses.append((node.attr, locked, node, method_name))
            for child in ast.iter_child_nodes(node):
                visit(child, locked, method_name)

        for method in methods:
            for child in method.body:
                visit(child, False, method.name)

        guarded = {attr for attr, locked, _, _ in accesses if locked}
        lock_name = sorted(lock_attrs)[0]
        for attr, locked, node, method_name in accesses:
            if locked or attr not in guarded or method_name == "__init__":
                continue
            findings.append(
                self.node_finding(
                    path,
                    node,
                    f"self.{attr} is accessed under `with self.{lock_name}` "
                    f"elsewhere in {cls.name} but {method_name}() touches it "
                    "without holding the lock — a service/executor thread "
                    "race on shared state",
                )
            )


# ----------------------------------------------------------------------
# DET005 — Detector protocol conformance
# ----------------------------------------------------------------------
class DetectorConformanceRule(ProjectRule):
    code = "DET005"
    name = "detector-conformance"
    summary = "a registered detector drifted from the fit/score/Verdict protocol"
    rationale = (
        "The sweep engine treats every entry of DETECTOR_CLASSES as "
        "interchangeable: fit(golden) then score(suspect) -> Verdict, with a "
        "string name keying rows and ScoreSpec rebuilds on worker hosts. A "
        "detector whose signature drifts, loses its name, or returns a "
        "non-Verdict fails at sweep time on whichever host happens to score "
        "it — this rule fails it at lint time instead, before it ships in a "
        "ScoreSpec."
    )
    fix = (
        "give the detector fit(self, golden) / score(self, suspect), a "
        "string `name` class attribute, and return Verdict(...) from score()"
    )
    option_keys = ("include", "exempt", "registry", "verdict-class")

    DEFAULT_REGISTRY = "src/repro/detection/protocol.py::DETECTOR_CLASSES"

    def project_check(self, project: ProjectModel, root: str) -> List[Finding]:
        registry_path, registry_name = _split_ref(
            self.options.get("registry", self.DEFAULT_REGISTRY)
        )
        verdict_name = self.options.get("verdict-class", "Verdict")
        module = project.modules.get(registry_path)
        if module is None:
            return []  # partial run
        registry = self._registry_values(module.tree, registry_name)
        if registry is None:
            return []
        findings: List[Finding] = []
        for class_name, node in registry:
            info = project.find_class(class_name)
            if info is None:
                findings.append(
                    self.node_finding(
                        registry_path,
                        node,
                        f"{registry_name} registers {class_name}, which is "
                        "not defined anywhere in the linted project",
                    )
                )
                continue
            findings.extend(self._check_detector(project, info, verdict_name))
        return findings

    @staticmethod
    def _registry_values(
        tree: ast.Module, registry_name: str
    ) -> Optional[List[Tuple[str, ast.AST]]]:
        for node in tree.body:
            target = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
            elif isinstance(node, ast.AnnAssign):
                target = node.target
            if not (isinstance(target, ast.Name) and target.id == registry_name):
                continue
            value = node.value
            if not isinstance(value, ast.Dict):
                return None
            out = []
            for entry in value.values:
                if isinstance(entry, ast.Name):
                    out.append((entry.id, entry))
            return out
        return None

    def _check_detector(
        self, project: ProjectModel, info: ClassInfo, verdict_name: str
    ) -> List[Finding]:
        findings: List[Finding] = []
        for method_name, arg_label in (("fit", "golden"), ("score", "suspect")):
            resolved = project.resolve_method(info, method_name)
            if resolved is None:
                findings.append(
                    self.node_finding(
                        info.path,
                        info.node,
                        f"detector {info.name} defines no {method_name}() "
                        "(directly or via its bases) — it cannot satisfy the "
                        "Detector protocol",
                    )
                )
                continue
            owner, method = resolved
            positional = len(method.args.posonlyargs) + len(method.args.args)
            required_kw = sum(
                1
                for arg, default in zip(
                    method.args.kwonlyargs, method.args.kw_defaults
                )
                if default is None
            )
            if positional != 2 or required_kw:
                findings.append(
                    self.node_finding(
                        owner.path,
                        method,
                        f"{info.name}.{method_name}() must take exactly "
                        f"(self, {arg_label}) — the sweep engine calls every "
                        "registered detector through that one shape",
                    )
                )
            if method_name == "score":
                findings.extend(
                    self._check_score_returns(info, owner, method, verdict_name)
                )
        if not self._has_name_attr(project, info):
            findings.append(
                self.node_finding(
                    info.path,
                    info.node,
                    f"detector {info.name} has no string `name` class "
                    "attribute — verdict rows and ScoreSpec entries key on it",
                )
            )
        return findings

    def _check_score_returns(
        self,
        info: ClassInfo,
        owner: ClassInfo,
        method: ast.FunctionDef,
        verdict_name: str,
    ) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(method):
            if not isinstance(node, ast.Return):
                continue
            value = node.value
            ok = (
                isinstance(value, ast.Call)
                and (
                    (isinstance(value.func, ast.Name) and value.func.id == verdict_name)
                    or (
                        isinstance(value.func, ast.Attribute)
                        and value.func.attr == verdict_name
                    )
                )
            )
            if not ok:
                findings.append(
                    self.node_finding(
                        owner.path,
                        node,
                        f"{info.name}.score() must return a {verdict_name}"
                        "(...) construction — the sweep serializes verdicts "
                        "straight into rows and wire payloads",
                    )
                )
        return findings

    def _has_name_attr(self, project: ProjectModel, info: ClassInfo) -> bool:
        seen: Set[str] = set()
        queue = [info]
        while queue:
            current = queue.pop(0)
            if current.name in seen:
                continue
            seen.add(current.name)
            for item in current.node.body:
                targets: List[ast.AST] = []
                if isinstance(item, ast.Assign):
                    targets = list(item.targets)
                elif isinstance(item, ast.AnnAssign) and item.value is not None:
                    targets = [item.target]
                elif isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ) and item.target.id == "name":
                    # `name: str` — the protocol's own declaration form.
                    return True
                for target in targets:
                    if isinstance(target, ast.Name) and target.id == "name":
                        return True
            for base in current.bases:
                base_info = project.find_class(base)
                if base_info is not None:
                    queue.append(base_info)
        return False


CONTRACT_REGISTRY: Tuple[Type[ProjectRule], ...] = (
    CacheKeyCompletenessRule,
    WireSchemaDriftRule,
    ToctouRule,
    LockConsistencyRule,
    DetectorConformanceRule,
)

CONTRACTS_BY_CODE: Dict[str, Type[ProjectRule]] = {
    cls.code: cls for cls in CONTRACT_REGISTRY
}
