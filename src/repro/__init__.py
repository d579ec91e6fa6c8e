"""repro: a reproduction of "Exact and Approximate Methods for Proving
Unrealizability of Syntax-Guided Synthesis Problems" (Hu, Cyphert, D'Antoni,
Reps — PLDI 2020).

The public API mirrors the paper's structure:

* build or parse SyGuS problems (:mod:`repro.sygus`, :mod:`repro.grammar`);
* prove unrealizability over a fixed example set with the exact LIA/CLIA
  decision procedures or the approximate abstract-domain instantiation
  (:mod:`repro.unreal`);
* run the full NAY CEGIS loop or the NOPE baseline (:mod:`repro.baselines`);
* regenerate the evaluation's tables and figures (:mod:`repro.experiments`,
  ``benchmarks/``).

Quickstart::

    from repro import Solver

    response = Solver(engine="portfolio").solve("problem.sl")
    print(response.verdict, response.to_json())

The service-grade front door is :mod:`repro.api` (:class:`Solver`,
:class:`SolveRequest`/:class:`SolveResponse` wire format, portfolio solving,
``repro-nay serve``); the classes below remain available for direct,
in-process use.
"""

from repro.api import (
    SCHEMA_VERSION,
    Solver,
    SolveRequest,
    SolveResponse,
    solve,
)
from repro.baselines import NayFin, NayHorn, NayInt, NaySL, Nope
from repro.engine import (
    UnrealizabilityEngine,
    create_engine,
    engine_names,
    register_engine,
)
from repro.grammar import (
    Nonterminal,
    Production,
    RegularTreeGrammar,
    Symbol,
    Term,
)
from repro.semantics import Example, ExampleSet
from repro.suites import all_benchmarks, benchmarks_by_suite, get_benchmark
from repro.sygus import Specification, SyGuSProblem, parse_sygus, parse_sygus_file, print_sygus
from repro.unreal import (
    CegisResult,
    CheckResult,
    NayConfig,
    NaySolver,
    Verdict,
    check_clia_examples,
    check_examples_abstract,
    check_lia_examples,
)

__version__ = "1.2.0"

__all__ = [
    "Solver",
    "SolveRequest",
    "SolveResponse",
    "solve",
    "SCHEMA_VERSION",
    "NaySL",
    "NayHorn",
    "Nope",
    "NayInt",
    "NayFin",
    "UnrealizabilityEngine",
    "register_engine",
    "create_engine",
    "engine_names",
    "NaySolver",
    "NayConfig",
    "Verdict",
    "CheckResult",
    "CegisResult",
    "check_lia_examples",
    "check_clia_examples",
    "check_examples_abstract",
    "SyGuSProblem",
    "Specification",
    "parse_sygus",
    "parse_sygus_file",
    "print_sygus",
    "RegularTreeGrammar",
    "Nonterminal",
    "Production",
    "Symbol",
    "Term",
    "Example",
    "ExampleSet",
    "all_benchmarks",
    "benchmarks_by_suite",
    "get_benchmark",
    "__version__",
]
