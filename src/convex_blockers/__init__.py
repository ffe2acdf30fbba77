"""Minimum blocking sets for non-crossing perfect matchings of a convex polygon.

The library enumerates the simple perfect matchings of the complete
geometric graph on a convex polygon with 2m vertices, generates all
minimum blocking sets from their canonical caterpillar parameters,
parses and counts them, and confirms the characterization against an
independent brute-force search at small m.

The public names resolve on first use, through a module `__getattr__`
(PEP 562): `import convex_blockers` loads no submodule, and the first read
of `convex_blockers.verify_theorem` imports `verify` and binds the name
here.  Every command-line run starts here, so it loads only the modules
its command uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_EXPORTS = {
    "blockers": ("BlockerSpec", "CaterpillarReport", "StructuralViolation",
                 "count_blockers", "count_blockers_by_spine", "enumerate_blockers",
                 "generate_blocker", "parse_blocker", "restrict_blocker",
                 "validate_caterpillar"),
    "cli": (),
    "errors": ("InfeasibilityError", "InputError", "ResourceLimitError",
               "StructureError"),
    "geometry": ("Edge", "PolygonContext", "are_parallel", "edge_class", "edge_order",
                 "edges_cross", "parallel_class"),
    "matchings": ("TriangularSpec", "catalan_number", "enumerate_spms",
                  "first_avoiding_spm", "is_spm", "parallel_spm", "spm_pairs",
                  "triangular_spm", "triangular_spm_from_blocks"),
    "oracle": ("OracleResult", "SpmFamilyIndex", "build_family_index",
               "find_minimum_blockers", "is_blocking_set"),
    "render": ("RenderSpec", "render_figure"),
    "verify": ("VerificationReport", "verify_theorem"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A submodule, or a public name read from its home module and then
    bound here, so that later reads are plain lookups."""
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
