"""Per-stage JSON manifests forming a provenance chain from graph to metric."""

import hashlib
import json
import os

from .errors import DependencyError


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def require_artifact(path, produced_by: str):
    """Raise DependencyError unless path names a regular file: a missing path
    and a directory both fail."""
    if not os.path.exists(path):
        raise DependencyError(
            f"missing required artifact {path} (produced by the {produced_by} stage)"
        )
    if not os.path.isfile(path):
        raise DependencyError(f"required artifact {path} is not a regular file "
                              f"(produced by the {produced_by} stage)")


def manifest_path(out_dir, stage) -> str:
    return os.path.join(out_dir, f"{stage}.manifest.json")


def write_manifest(out_dir, stage, config, seed, inputs, outputs, seconds,
                   metrics=None):
    doc = {
        "stage": stage,
        "config": config,
        "seed": seed,
        "inputs": {name: {"path": str(p), "sha256": sha256_file(p)}
                   for name, p in inputs.items()},
        "outputs": {name: {"path": str(p), "sha256": sha256_file(p)}
                    for name, p in outputs.items()},
        "wall_clock_seconds": seconds,
        "metrics": metrics or {},
    }
    path = manifest_path(out_dir, stage)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)


def read_manifest(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def staleness_warnings(artifact, stage, current_inputs: dict) -> list:
    """Warnings about the manifest `stage` wrote next to `artifact`: each
    current input whose hash no longer matches the one it recorded, or that
    the manifest cannot be read. No manifest, no warning; never fatal."""
    path = manifest_path(os.path.dirname(artifact) or ".", stage)
    if not os.path.exists(path):
        return []
    try:
        doc = read_manifest(path)
        recorded = {**doc.get("inputs", {}), **doc.get("outputs", {})}.values()
        return [f"stale input: {p} changed since the {doc.get('stage')} stage recorded it"
                for p in current_inputs.values() for rec in recorded
                if os.path.abspath(rec["path"]) == os.path.abspath(str(p))
                and os.path.exists(p) and sha256_file(p) != rec["sha256"]]
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
        return [f"unreadable manifest {path} ({type(exc).__name__}: {exc}); "
                f"inputs not checked for staleness"]
