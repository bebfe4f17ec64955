"""Bundled policy pack: load, validate, and interference-check a
directory of .pol files plus the scenario-expectation manifest.

Policies flagged `experimental` are parsed and validated like any other
but excluded from the interference gate and from default deployment;
they exist to demonstrate capabilities (suppression) that the regular
pack does not exercise and may overlap its vocabularies.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .dsl import PolicyDoc, PolicyParseError, parse
from .interference import check_set
from .sim import Expectation, ScenarioError, ScenarioScript, parse_scenario

_DATA_DIR = Path(__file__).parent / "data"


class PackLoadError(Exception):
    def __init__(self, problems: list[str]) -> None:
        self.problems = problems
        super().__init__("\n".join(problems))


@dataclass(frozen=True)
class PolicyPack:
    policies: dict[str, PolicyDoc]
    expectations: dict[str, Expectation]

    def deployable(self) -> list[PolicyDoc]:
        """Policies deployed by default: everything not experimental."""
        return [p for p in self.policies.values() if not p.experimental]

    def __len__(self) -> int:
        return len(self.policies)


def bundled_pack_dir() -> Path:
    return _DATA_DIR / "policies"


def bundled_scenarios_dir() -> Path:
    return _DATA_DIR / "scenarios"


def load_policies(directory: Path) -> tuple[dict[str, PolicyDoc], list[str]]:
    """Parse every .pol file; returns (docs by name, problem strings)."""
    problems: list[str] = []
    docs: dict[str, PolicyDoc] = {}
    for path in sorted(directory.glob("*.pol")):
        try:
            doc = parse(path.read_text(encoding="utf-8"))
        except PolicyParseError as exc:
            problems.extend(f"{path.name}:{d}" for d in exc.diagnostics)
            continue
        if doc.name in docs:
            problems.append(f"{path.name}: duplicate policy name {doc.name!r}")
            continue
        docs[doc.name] = doc
    return docs, problems


def _load_manifest(directory: Path) -> tuple[dict[str, Expectation], list[str]]:
    expectations: dict[str, Expectation] = {}
    first_line: dict[str, int] = {}
    problems: list[str] = []
    manifest = directory / "manifest"
    if not manifest.exists():
        return expectations, problems
    for lineno, raw in enumerate(manifest.read_text(encoding="utf-8").splitlines(),
                                 start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            problems.append(f"manifest:{lineno}: expected '<scenario> "
                            f"healed|no-violation', got {raw!r}")
            continue
        scenario, expectation = parts
        if scenario in first_line:
            problems.append(f"manifest:{lineno}: duplicate scenario {scenario!r} "
                            f"(first on line {first_line[scenario]})")
            continue
        first_line[scenario] = lineno
        try:
            expectations[scenario] = Expectation(expectation)
        except ValueError:
            problems.append(f"manifest:{lineno}: unknown expectation "
                            f"{expectation!r}")
    return expectations, problems


def load_pack(directory: Path) -> PolicyPack:
    """Load a pack directory: all files parsed and validated, and the
    deployable subset pairwise interference-checked.  Any failure aborts
    with the aggregated problems."""
    directory = Path(directory)
    if not directory.is_dir():
        raise PackLoadError([f"pack directory {directory} does not exist"])
    docs, problems = load_policies(directory)
    expectations, manifest_problems = _load_manifest(directory)
    problems.extend(manifest_problems)
    if not problems:
        report = check_set([p for p in docs.values() if not p.experimental])
        if not report.ok:
            problems.append(f"deployable policies interfere:\n{report}")
    if problems:
        raise PackLoadError(problems)
    return PolicyPack(policies=docs, expectations=expectations)


def load_bundled_pack() -> PolicyPack:
    return load_pack(bundled_pack_dir())


def load_scenario_file(path: Path, pack: PolicyPack | None = None) -> ScenarioScript:
    name = path.stem
    expected = pack.expectations.get(name) if pack else None
    return parse_scenario(path.read_text(encoding="utf-8"), name, expected)


def load_bundled_scenarios(pack: PolicyPack | None = None) -> dict[str, ScenarioScript]:
    scripts: dict[str, ScenarioScript] = {}
    for path in sorted(bundled_scenarios_dir().glob("*.scn")):
        scripts[path.stem] = load_scenario_file(path, pack)
    return scripts
