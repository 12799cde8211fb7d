"""Stable content hashes for sweep-cell configurations.

The cache key for a sweep cell must be identical across processes and
interpreter runs, which rules out ``hash()`` (salted) and ``pickle``
(protocol- and memo-layout-dependent). Instead every config is lowered to
a canonical, printable form — dataclasses become ``(qualified name,
sorted field items)``, enums become ``(qualified name, value)``, floats
go through ``repr`` (shortest round-trip form) — and the SHA-256 of that
text is the fingerprint.

Private dataclass fields (leading underscore) are skipped: they are
memoisation slots, not configuration.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from typing import Any, Callable, Optional

from repro import _version
from repro.errors import ExperimentError

#: Version of the *result schema* — the pickled shape of cached cell
#: values (ScenarioSummary fields, histogram layouts). Folded into every
#: fingerprint and cell key alongside the package version, so a cache
#: entry pickled under an older shape addresses a different key and is
#: never unpickled into newer code. Bump whenever ScenarioSummary (or
#: anything it contains) gains, loses, or re-types a field.
SCHEMA_VERSION = 9


def _qualname(obj: Any) -> str:
    cls = obj if isinstance(obj, type) else type(obj)
    return f"{cls.__module__}.{cls.__qualname__}"


def canonicalize(obj: Any) -> str:
    """Deterministic text form of a configuration value.

    Supports the types configuration dataclasses are made of: primitives,
    bytes, enums, dataclasses, and dict/list/tuple/set containers.
    Anything else raises :class:`ExperimentError` — an unhashable config
    should fail loudly, not silently collide.
    """
    if obj is None or isinstance(obj, (bool, int)):
        return repr(obj)
    if isinstance(obj, float):
        return f"float:{obj!r}"
    if isinstance(obj, str):
        return f"str:{obj!r}"
    if isinstance(obj, bytes):
        return f"bytes:{obj.hex()}"
    if isinstance(obj, enum.Enum):
        return f"enum:{_qualname(obj)}={obj.value!r}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        items = []
        for field in dataclasses.fields(obj):
            if field.name.startswith("_"):
                continue
            items.append(f"{field.name}="
                         f"{canonicalize(getattr(obj, field.name))}")
        return f"dc:{_qualname(obj)}({','.join(items)})"
    if isinstance(obj, (list, tuple)):
        kind = "list" if isinstance(obj, list) else "tuple"
        return f"{kind}:[{','.join(canonicalize(item) for item in obj)}]"
    if isinstance(obj, (set, frozenset)):
        parts = sorted(canonicalize(item) for item in obj)
        return f"set:[{','.join(parts)}]"
    if isinstance(obj, dict):
        parts = sorted(f"{canonicalize(k)}:{canonicalize(v)}"
                       for k, v in obj.items())
        return f"dict:{{{','.join(parts)}}}"
    raise ExperimentError(
        f"cannot build a stable fingerprint for {type(obj).__name__!r} "
        f"values; use primitives, enums, or dataclasses in sweep configs")


def stable_hash(obj: Any) -> str:
    """SHA-256 hex digest of the canonical form of *obj*."""
    return hashlib.sha256(canonicalize(obj).encode("utf-8")).hexdigest()


def config_fingerprint(config: Any, *, version: Optional[str] = None,
                       extra: Any = None,
                       schema: Optional[int] = None) -> str:
    """Cache fingerprint of one configuration value.

    The package version and the result-schema version are folded in by
    default so that results computed by older code — or pickled under an
    older summary shape — are never served for newer code; bumping
    either is a whole-cache invalidation.
    """
    if version is None:
        version = _version.__version__
    if schema is None:
        schema = SCHEMA_VERSION
    material = f"v={version};schema={schema};" \
               f"extra={canonicalize(extra)};" \
               f"config={canonicalize(config)}"
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def cell_key(fn: Callable, spec: Any, *, version: Optional[str] = None,
             extra: Any = None, schema: Optional[int] = None) -> str:
    """Cache key of one sweep cell: function identity + config +
    package version + result-schema version."""
    fn_id = f"{getattr(fn, '__module__', '?')}." \
            f"{getattr(fn, '__qualname__', repr(fn))}"
    if version is None:
        version = _version.__version__
    if schema is None:
        schema = SCHEMA_VERSION
    material = f"fn={fn_id};v={version};schema={schema};" \
               f"extra={canonicalize(extra)};" \
               f"spec={canonicalize(spec)}"
    return hashlib.sha256(material.encode("utf-8")).hexdigest()
