"""Typed, frozen request specs — the one declarative contract of the system.

Every front door of the pipeline — the library (:class:`~repro.core.maimon.
Maimon` / :func:`~repro.entropy.oracle.make_oracle`), the one-shot CLI, the
HTTP serving layer and the bench harnesses — used to re-declare the same
knobs (engine, workers, persist, eps, budget, top, objective, ...) with
subtly different validation.  This module is now the single place those
knobs are *defined* and *validated*:

* :class:`EngineSpec` — how entropies are computed (engine arm, worker
  pool, persistent cache, delta tracking, sampling knobs);
* :class:`DataSpec`   — where the relation comes from (a CSV path or a
  built-in Table 2 surrogate plus scale/row cap);
* :class:`MineSpec` / :class:`SchemasSpec` / :class:`ProfileSpec` /
  :class:`DiffSpec` — per-task parameters.

Every spec is a frozen dataclass with ``validate()`` (raises
:class:`SpecError` with a message naming the offending field),
``to_dict()`` / ``from_dict()`` (exact round-trip, unknown keys rejected)
and a stable JSON form via ``to_json()`` / ``from_json()``.  Transports
deserialize into these specs and compile them down to the same library
calls, so a CLI invocation, an HTTP body and a config file that carry the
same spec produce identical results by construction (see
:mod:`repro.api.tasks`).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Type, TypeVar

#: The entropy engine arms ``make_oracle`` knows how to build.
ENGINES = ("pli", "approx")

S = TypeVar("S", bound="Spec")


class SpecError(ValueError):
    """A request spec failed validation or deserialisation.

    Subclasses :class:`ValueError` so pre-spec call sites that caught
    ``ValueError`` from ad-hoc validation keep working.  ``field`` names
    the offending knob when one is identifiable, so transports can build
    structured error envelopes.
    """

    def __init__(self, message: str, field: Optional[str] = None) -> None:
        super().__init__(message)
        self.field = field


def _require(condition: bool, message: str, field: Optional[str] = None) -> None:
    if not condition:
        raise SpecError(message, field=field)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class Spec:
    """Base class: dict/JSON round-trip plus strict field handling."""

    def validate(self: S) -> S:
        """Check every field; returns ``self`` so calls chain."""
        return self

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form with every field present (stable key set)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls: Type[S], data: Dict[str, Any]) -> S:
        """Rebuild a spec from :meth:`to_dict` output (exact round-trip).

        Missing keys take the spec's defaults; unknown keys are an error,
        not silently dropped — a typoed knob in a config file must not
        turn into a default-valued run.
        """
        if not isinstance(data, dict):
            raise SpecError(f"{cls.__name__} expects a JSON object, "
                            f"got {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(
                f"unknown field(s) for {cls.__name__}: {', '.join(unknown)}; "
                f"known: {', '.join(sorted(known))}",
                field=unknown[0],
            )
        return cls(**data)

    def provenance(self) -> Dict[str, Any]:
        """The fields embedded in result artefacts (see ``stamp_payload``).

        Defaults to every field; specs override to drop knobs that cannot
        affect the artefact's content, so identical results never stamp
        (and ``repro diff``-warn) differently.
        """
        return self.to_dict()

    def to_json(self) -> str:
        """Stable JSON form (sorted keys, no whitespace surprises)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls: Type[S], text: str) -> S:
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise SpecError(f"{cls.__name__}: invalid JSON: {exc}") from None
        return cls.from_dict(data)

    def replace(self: S, **changes: Any) -> S:
        return dataclasses.replace(self, **changes)


# --------------------------------------------------------------------- #
# Engine
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class EngineSpec(Spec):
    """How entropies are computed: the knobs behind ``make_oracle``.

    Fields
    ------
    engine:
        ``"pli"`` (default; exact, counts-first) or ``"approx"`` (sampled
        decisions with exact escalation) — see
        :func:`repro.entropy.oracle.make_oracle`.
    workers:
        Entropy worker processes.  For ``"approx"`` the pool serves the
        exact escalation tier.
    persist, cache_dir:
        On-disk entropy cache; ``cache_dir`` is only meaningful with
        ``persist`` on, so setting it with ``persist=False`` is an error
        instead of a silently dead flag.
    track_deltas:
        Record delta-maintenance state so appends patch the warm oracle
        (see :mod:`repro.delta`).  A session-lifetime knob: it never
        changes results, so it is excluded from result provenance.
        Oracles whose values are not plug-in entropies (``approx``)
        decline tracking and rebuild on advance instead.
    estimator:
        Entropy estimator centring the ``approx`` intervals
        (:data:`repro.entropy.estimators.ESTIMATORS`); must stay ``"mle"``
        for ``pli``, whose values *are* the plug-in estimate.
    sample_rows, confidence, sample_seed:
        ``approx``-only sampling knobs: sample size, decision confidence
        level in ``(0, 1)`` and sampling seed.  ``None`` means the engine
        defaults (see :mod:`repro.approx.engine`); setting any of them
        with another engine is an error, not a silently dead knob.
    trace:
        Record a hierarchical span tree for the request and embed it as
        ``payload["trace"]`` (see :mod:`repro.obs.trace`).  Pure
        telemetry: it never changes results, so — like ``persist`` — it
        is excluded from result provenance, and artefacts produced with
        it off are byte-identical to pre-trace output.
    """

    engine: str = "pli"
    workers: int = 1
    persist: bool = False
    cache_dir: Optional[str] = None
    track_deltas: bool = False
    estimator: str = "mle"
    sample_rows: Optional[int] = None
    confidence: Optional[float] = None
    sample_seed: Optional[int] = None
    trace: bool = False

    def validate(self) -> "EngineSpec":
        _require(self.engine in ENGINES,
                 f"unknown engine {self.engine!r}; expected "
                 + ", ".join(repr(e) for e in ENGINES), field="engine")
        _require(_is_int(self.workers) and self.workers >= 1,
                 "'workers' must be an integer >= 1", field="workers")
        _require(isinstance(self.persist, bool),
                 "'persist' must be a boolean", field="persist")
        _require(self.cache_dir is None or isinstance(self.cache_dir, str),
                 "'cache_dir' must be a string path or null", field="cache_dir")
        _require(self.cache_dir is None or self.persist,
                 "'cache_dir' has no effect with the persistent entropy "
                 "cache disabled; drop it or enable persist", field="cache_dir")
        _require(isinstance(self.track_deltas, bool),
                 "'track_deltas' must be a boolean", field="track_deltas")
        from repro.entropy.estimators import ESTIMATORS

        _require(self.estimator in ESTIMATORS,
                 f"unknown estimator {self.estimator!r}; known: "
                 + ", ".join(sorted(ESTIMATORS)), field="estimator")
        _require(self.estimator == "mle" or self.engine == "approx",
                 f"'estimator' {self.estimator!r} only applies to engine "
                 f"'approx'; engine {self.engine!r} computes plug-in "
                 f"entropies", field="estimator")
        _require(self.sample_rows is None
                 or (_is_int(self.sample_rows) and self.sample_rows >= 1),
                 "'sample_rows' must be an integer >= 1 or null",
                 field="sample_rows")
        _require(self.confidence is None
                 or (_is_number(self.confidence) and 0 < self.confidence < 1),
                 "'confidence' must be a number in (0, 1) or null",
                 field="confidence")
        _require(self.sample_seed is None
                 or (_is_int(self.sample_seed) and self.sample_seed >= 0),
                 "'sample_seed' must be an integer >= 0 or null",
                 field="sample_seed")
        for name, value in (("sample_rows", self.sample_rows),
                            ("confidence", self.confidence),
                            ("sample_seed", self.sample_seed)):
            _require(value is None or self.engine == "approx",
                     f"'{name}' only applies to engine 'approx'; engine "
                     f"{self.engine!r} always evaluates the full relation",
                     field=name)
        _require(isinstance(self.trace, bool),
                 "'trace' must be a boolean", field="trace")
        return self

    @classmethod
    def from_request(cls, payload: Dict[str, Any],
                     base: Optional["EngineSpec"] = None) -> "EngineSpec":
        """Build from a loosely-typed transport payload (HTTP JSON body).

        Known engine keys are read from ``payload`` with ``base`` (the
        server's defaults) filling the gaps; numeric strings are coerced
        with per-field errors.  ``cache_dir`` is server-owned: a remote
        client must never direct where the service writes cache files, so
        a payload that carries one is rejected rather than honoured or
        silently dropped.  The result is validated.
        """
        base = base if base is not None else cls()
        if "cache_dir" in payload:
            raise SpecError(
                "'cache_dir' is a server-side setting; start the service "
                "with --cache-dir instead of sending it per request",
                field="cache_dir",
            )
        if "track_deltas" in payload:
            raise SpecError(
                "'track_deltas' is a server-side setting (warm sessions "
                "always record delta state); drop it from the request",
                field="track_deltas",
            )
        engine = payload.get("engine", base.engine)
        workers = _int_or_error(payload, "workers", base.workers,
                                "'workers' must be an integer")
        persist = payload.get("persist", base.persist)
        if not isinstance(persist, bool):
            # No bool() coercion: bool("false") is True, which would
            # silently *enable* server disk writes on a request that
            # asked to disable them.
            raise SpecError("'persist' must be a boolean (JSON true/false)",
                            field="persist")
        estimator = payload.get("estimator", base.estimator)
        if not isinstance(estimator, str):
            raise SpecError("'estimator' must be an estimator name string",
                            field="estimator")
        return cls(
            engine=engine,
            workers=workers,
            persist=persist,
            # Only meaningful when this request actually persists (and
            # required to be None otherwise by validate()).
            cache_dir=base.cache_dir if persist else None,
            track_deltas=base.track_deltas,
            estimator=estimator,
            sample_rows=_int_or_error(payload, "sample_rows", base.sample_rows,
                                      "'sample_rows' must be an integer"),
            confidence=_float_or_error(payload, "confidence", base.confidence,
                                       "'confidence' must be a number"),
            sample_seed=_int_or_error(payload, "sample_seed", base.sample_seed,
                                      "'sample_seed' must be an integer"),
            trace=_bool_or_error(payload, "trace", base.trace,
                                 "'trace' must be a boolean (JSON true/false)"),
        ).validate()

    def provenance(self) -> Dict[str, Any]:
        """The fields worth embedding in result artefacts.

        Only knobs that can shape the artefact's *content*:

        * ``track_deltas`` is excluded — a holder-lifetime optimisation
          (bit-identical results by design), so one-shot and warm-serving
          runs of the same request stay byte-identical;
        * ``persist`` / ``cache_dir`` are excluded — pure caching knobs
          (whether and where entropies are cached, never their values);
          stamping them would make the CLI's persist-by-default artefacts
          diff-warn against default library/serve runs of identical data;
        * ``trace`` is excluded for the same reason — telemetry about
          the run, never part of what the run computed;
        * the sampling knobs (``estimator``, ``sample_rows``,
          ``confidence``, ``sample_seed``) are stamped only for
          ``approx`` — on ``pli`` they are pinned to their inert
          defaults by ``validate()``, and stamping them there would
          diff-warn every pre-existing artefact.  For ``approx``
          the *resolved* defaults are stamped (not ``None``), so the
          artefact records the actual sample configuration that produced
          it even if engine defaults change later.
        """
        out = self.to_dict()
        out.pop("track_deltas")
        out.pop("persist")
        out.pop("cache_dir")
        out.pop("trace")
        if self.engine == "approx":
            from repro.approx.engine import (
                DEFAULT_CONFIDENCE,
                DEFAULT_SAMPLE_ROWS,
                DEFAULT_SAMPLE_SEED,
            )

            if out["sample_rows"] is None:
                out["sample_rows"] = DEFAULT_SAMPLE_ROWS
            if out["confidence"] is None:
                out["confidence"] = DEFAULT_CONFIDENCE
            if out["sample_seed"] is None:
                out["sample_seed"] = DEFAULT_SAMPLE_SEED
        else:
            out.pop("estimator")
            out.pop("sample_rows")
            out.pop("confidence")
            out.pop("sample_seed")
        return out

    # ------------------------------------------------------------------ #
    # Compilation down to the library
    # ------------------------------------------------------------------ #

    def make_oracle(self, relation: Any) -> Any:
        """Build the entropy oracle this spec describes.

        Goes through :func:`repro.entropy.oracle.make_oracle` *by module
        attribute* so instrumentation (tests, tracing) that patches that
        name observes spec-built oracles too.
        """
        from repro.entropy import oracle as oracle_module

        self.validate()
        return oracle_module.make_oracle(
            relation,
            engine=self.engine,
            workers=self.workers,
            persist=self.persist,
            cache_dir=self.cache_dir,
            estimator=self.estimator,
            sample_rows=self.sample_rows,
            confidence=self.confidence,
            sample_seed=self.sample_seed,
        )

    def make_maimon(self, relation: Any, optimized: bool = True,
                    track_deltas: Optional[bool] = None) -> Any:
        """Build a :class:`~repro.core.maimon.Maimon` from this spec.

        ``track_deltas`` overrides the spec field (the serving layer turns
        it on for every warm session regardless of the request).
        """
        from repro.core.maimon import Maimon

        spec = self if track_deltas is None else self.replace(
            track_deltas=track_deltas
        )
        return Maimon(relation, optimized=optimized, spec=spec.validate())


# --------------------------------------------------------------------- #
# Data
# --------------------------------------------------------------------- #

#: Storage backend names ``DataSpec.backend`` accepts (see
#: :mod:`repro.backends`).  ``numpy`` is the in-memory default and only
#: meaningful with ``csv``/``dataset``; ``mmap``/``duckdb`` read a
#: ``store`` directory.
STORE_BACKENDS = ("numpy", "mmap", "duckdb")


@dataclass(frozen=True)
class DataSpec(Spec):
    """Where the input relation comes from: CSV, surrogate or store.

    Exactly one of ``csv`` (a file path), ``dataset`` (a built-in
    Table 2 surrogate name) or ``store`` (a columnar store directory
    written by ``repro ingest``; see :mod:`repro.backends`) must be set.
    ``scale`` applies to surrogate row counts; ``max_rows`` caps either
    parsed source (rows beyond the cap are never parsed).  ``sample``
    instead draws a uniform row sample without replacement,
    deterministic in ``seed`` — spec-driven sampling is reproducible end
    to end (``Relation.sample_rows`` takes the seed straight through).
    ``backend`` picks the storage engine for a ``store`` (``mmap``
    default, ``duckdb`` optional); stores are pre-encoded and immutable,
    so the parse/sample knobs do not apply to them.
    """

    csv: Optional[str] = None
    dataset: Optional[str] = None
    store: Optional[str] = None
    backend: Optional[str] = None
    scale: float = 0.01
    max_rows: Optional[int] = None
    sample: Optional[int] = None
    seed: int = 0

    def validate(self) -> "DataSpec":
        sources = sum(
            s is not None for s in (self.csv, self.dataset, self.store)
        )
        _require(sources == 1,
                 "provide exactly one of 'csv' (a file path), 'dataset' "
                 "(a built-in surrogate name) or 'store' (an ingested "
                 "store directory)", field="csv")
        _require(self.csv is None or isinstance(self.csv, str),
                 "'csv' must be a file path string", field="csv")
        _require(self.dataset is None or isinstance(self.dataset, str),
                 "'dataset' must be a surrogate name string", field="dataset")
        _require(self.store is None or isinstance(self.store, str),
                 "'store' must be a store directory path string",
                 field="store")
        _require(self.backend is None or self.backend in STORE_BACKENDS,
                 "'backend' must be one of "
                 + ", ".join(repr(b) for b in STORE_BACKENDS) + " or null",
                 field="backend")
        if self.store is not None:
            _require(self.backend in (None, "mmap", "duckdb"),
                     "'backend' for a store must be 'mmap' or 'duckdb'",
                     field="backend")
            _require(self.max_rows is None and self.sample is None,
                     "'max_rows'/'sample' apply while parsing; a store is "
                     "pre-encoded and immutable — re-ingest a capped CSV "
                     "instead", field="max_rows")
        else:
            _require(self.backend in (None, "numpy"),
                     "'backend' " + repr(self.backend) + " requires a "
                     "'store' directory; csv/dataset sources are in-memory "
                     "('numpy')", field="backend")
        _require(_is_number(self.scale) and self.scale > 0,
                 "'scale' must be a number > 0", field="scale")
        _require(self.max_rows is None
                 or (_is_int(self.max_rows) and self.max_rows >= 1),
                 "'max_rows' must be an integer >= 1 or null", field="max_rows")
        _require(self.sample is None
                 or (_is_int(self.sample) and self.sample >= 1),
                 "'sample' must be an integer >= 1 or null", field="sample")
        _require(_is_int(self.seed) and self.seed >= 0,
                 "'seed' must be an integer >= 0", field="seed")
        _require(self.seed == 0 or self.sample is not None,
                 "'seed' has no effect without 'sample'; drop it or set a "
                 "sample size", field="seed")
        return self

    def load(self) -> Any:
        """Resolve this spec to a relation (in-memory or store-backed)."""
        self.validate()
        if self.store is not None:
            from repro.backends import StoreError, open_store_relation

            if self.backend == "duckdb":
                from repro.backends import have_duckdb

                if not have_duckdb():
                    raise SpecError(
                        "backend 'duckdb' requires the optional duckdb "
                        "dependency, which is not installed",
                        field="backend",
                    )
            try:
                return open_store_relation(
                    self.store, backend=self.backend or "mmap"
                )
            except StoreError as exc:
                raise SpecError(str(exc), field="store") from exc
        if self.dataset is not None:
            from repro.data import datasets

            relation = datasets.load(
                self.dataset, scale=self.scale, max_rows=self.max_rows
            )
        else:
            from repro.data.loaders import from_csv

            relation = from_csv(self.csv, max_rows=self.max_rows)
        if self.sample is not None and self.sample < relation.n_rows:
            relation = relation.sample_rows(self.sample, seed=self.seed)
        return relation


# --------------------------------------------------------------------- #
# Task specs
# --------------------------------------------------------------------- #

def _check_eps(eps: Any) -> None:
    _require(_is_number(eps), "'eps' must be a number", field="eps")
    _require(eps >= 0, "'eps' must be >= 0", field="eps")


def _check_budget(budget: Any) -> None:
    _require(budget is None or _is_number(budget),
             "'budget' must be a number of seconds or null", field="budget")
    _require(budget is None or budget >= 0,
             "'budget' must be >= 0", field="budget")


def _check_top(top: Any) -> None:
    _require(_is_int(top) and top >= 0,
             "'top' must be an integer >= 0", field="top")


def _float_or_error(payload: Dict[str, Any], key: str, default: Any,
                    message: str) -> Any:
    value = payload.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool):
        # float(True) == 1.0 would silently turn a mistyped flag into a
        # drastically different threshold.
        raise SpecError(message, field=key)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise SpecError(message, field=key) from None


def _int_or_error(payload: Dict[str, Any], key: str, default: Any,
                  message: str) -> Any:
    value = payload.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool):
        raise SpecError(message, field=key)
    try:
        coerced = int(value)
    except (TypeError, ValueError):
        raise SpecError(message, field=key) from None
    if isinstance(value, float) and value != coerced:
        # int(2.9) == 2 would silently truncate, not validate.
        raise SpecError(message, field=key)
    return coerced


def _str_or_error(payload: Dict[str, Any], key: str, default: Any,
                  message: str) -> str:
    value = payload.get(key, default)
    if not isinstance(value, str):
        raise SpecError(message, field=key)
    return value


def _bool_or_error(payload: Dict[str, Any], key: str, default: Any,
                   message: str) -> bool:
    value = payload.get(key, default)
    if not isinstance(value, bool):
        # bool("false") is True: request flags must be actual JSON booleans,
        # never coerced from whatever string the client sent.
        raise SpecError(message, field=key)
    return value


@dataclass(frozen=True)
class MineSpec(Spec):
    """Phase 1: mine the full ε-MVDs with minimal separators.

    ``budget=None`` means unlimited; an explicit ``0`` means *no time at
    all* (an empty, truncated result) — the CLI and serve layers share
    this reading.  ``top`` only caps human-facing listings; artefacts
    always carry the full result.
    """

    eps: float = 0.0
    budget: Optional[float] = None
    top: int = 20

    def validate(self) -> "MineSpec":
        _check_eps(self.eps)
        _check_budget(self.budget)
        _check_top(self.top)
        return self

    def provenance(self) -> dict:
        """``top`` is a listing cap — the artefact always carries the
        full result — so it is not part of what produced the content."""
        out = self.to_dict()
        out.pop("top")
        return out

    @classmethod
    def from_request(cls, payload: Dict[str, Any]) -> "MineSpec":
        base = cls()
        return cls(
            eps=_float_or_error(payload, "eps", base.eps,
                                "'eps' must be a number"),
            budget=_float_or_error(payload, "budget", base.budget,
                                   "'budget' must be a number of seconds"),
            top=_int_or_error(payload, "top", base.top,
                              "'top' must be an integer"),
        ).validate()


@dataclass(frozen=True)
class SchemasSpec(Spec):
    """Both phases plus ranking: top-k approximate acyclic schemas."""

    eps: float = 0.05
    budget: Optional[float] = None
    top: int = 10
    objective: str = "balanced"
    spurious: bool = True

    def validate(self) -> "SchemasSpec":
        _check_eps(self.eps)
        _check_budget(self.budget)
        _check_top(self.top)
        from repro.core.ranking import OBJECTIVES

        _require(self.objective in OBJECTIVES,
                 f"unknown objective {self.objective!r}; known: "
                 + ", ".join(sorted(OBJECTIVES)), field="objective")
        _require(isinstance(self.spurious, bool),
                 "'spurious' must be a boolean", field="spurious")
        return self

    @classmethod
    def from_request(cls, payload: Dict[str, Any]) -> "SchemasSpec":
        base = cls()
        spurious = not _bool_or_error(payload, "no_spurious", False,
                                      "'no_spurious' must be a boolean")
        if "spurious" in payload:
            spurious = _bool_or_error(payload, "spurious", base.spurious,
                                      "'spurious' must be a boolean")
        return cls(
            eps=_float_or_error(payload, "eps", base.eps,
                                "'eps' must be a number"),
            budget=_float_or_error(payload, "budget", base.budget,
                                   "'budget' must be a number of seconds"),
            top=_int_or_error(payload, "top", base.top,
                              "'top' must be an integer"),
            objective=_str_or_error(payload, "objective", base.objective,
                                    "'objective' must be a string"),
            spurious=spurious,
        ).validate()


@dataclass(frozen=True)
class ProfileSpec(Spec):
    """Column entropies plus minimal exact FDs up to ``fd_lhs`` attributes."""

    fd_lhs: int = 2
    budget: Optional[float] = None

    def validate(self) -> "ProfileSpec":
        _require(_is_int(self.fd_lhs) and self.fd_lhs >= 1,
                 "'fd_lhs' must be an integer >= 1", field="fd_lhs")
        _check_budget(self.budget)
        return self

    @classmethod
    def from_request(cls, payload: Dict[str, Any]) -> "ProfileSpec":
        base = cls()
        return cls(
            fd_lhs=_int_or_error(payload, "fd_lhs", base.fd_lhs,
                                 "'fd_lhs' must be an integer"),
            budget=_float_or_error(payload, "budget", base.budget,
                                   "'budget' must be a number of seconds"),
        ).validate()


@dataclass(frozen=True)
class DiffSpec(Spec):
    """Diff two saved artefacts: listing cap and score tolerance."""

    top: int = 20
    tol: float = 1e-9

    def validate(self) -> "DiffSpec":
        _check_top(self.top)
        _require(_is_number(self.tol) and self.tol >= 0,
                 "'tol' must be a number >= 0", field="tol")
        return self
