"""Seeded inputs for the tbforge benchmark.

Everything the program under test reads is generated here from one seed:
Verilog reference modules and mutated candidates in the frontend's subset,
spec/code and testbench JSONL corpora, and the per-row plans that tell the
stub chat endpoint and the stand-in simulator how each row must go.

The shape of every batch (which path each row takes, the module sizes,
which candidates fail to parse, how many chat requests get a transient
503) is fixed. The Verilog, the specs, the latencies and which requests
get the 503 depend on the seed, so runs with different seeds do the same
amount of work and their figures can be compared.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

# The pipeline limits the benchmark config sets; the plan walk below models
# the pipeline under exactly these values.
MAX_DRAFT = 3
MAX_IMPROVE = 3
MAX_RECTIFY = 3
COVERAGE_THRESHOLD = 90.0
PAIR_CAP = 4
CANDIDATES = 8

ROW_TAG = "[bench-row {}]"

_OPS = ("+", "-", "&", "|", "^")


# ---------------------------------------------------------------- Verilog

@dataclass
class Stmt:
    target: str
    expr: tuple


@dataclass
class VModule:
    name: str
    width: int
    data_inputs: list[str]
    enables: list[str]
    outputs: list[str]
    regs: list[str]
    wires: list[str]
    assigns: list[Stmt] = field(default_factory=list)
    seq: list[Stmt] = field(default_factory=list)
    case_target: str | None = None
    case_arms: list[Stmt] = field(default_factory=list)

    def sources(self) -> list[str]:
        return self.data_inputs + self.enables + self.regs + self.wires


def _expr_text(e: tuple) -> str:
    kind = e[0]
    if kind == "id" or kind == "num":
        return e[1]
    if kind == "bin":
        return f"({_expr_text(e[2])} {e[1]} {_expr_text(e[3])})"
    if kind == "un":
        return f"{e[1]}{_expr_text(e[2])}"
    if kind == "tern":
        return f"({_expr_text(e[1])} ? {_expr_text(e[2])} : {_expr_text(e[3])})"
    raise ValueError(kind)


def _expr(rng: random.Random, pool: list[str], width: int, shape: int) -> tuple:
    """A right-hand side of the given shape with seeded operators and
    operands. Shapes are picked by statement position, not by the seed, so
    a module of a given size has the same token count for every seed and
    the parsing work of a batch does not change between seeds."""
    a, b, c = rng.sample(pool, 3)
    op1, op2 = rng.choice(_OPS), rng.choice(_OPS)
    leaf = lambda name: ("id", name)  # noqa: E731
    if shape == 0:
        return ("bin", op2, ("bin", op1, leaf(a), leaf(b)), leaf(c))
    if shape == 1:
        return ("bin", op2, ("un", "~", leaf(a)), ("bin", op1, leaf(b), leaf(c)))
    if shape == 2:
        return ("tern", leaf(a), ("bin", op1, leaf(b), leaf(c)), leaf(b))
    if shape == 3:
        number = ("num", f"{width}'d{rng.randrange(1, 2 ** min(width, 8))}")
        return ("bin", op2, ("bin", op1, leaf(a), number), leaf(c))
    return ("bin", op1, leaf(a), leaf(b))


def render_module(m: VModule, header: str = "", breakage: str = "") -> str:
    w = f"[{m.width - 1}:0] "
    ports = ["    input clk", "    input rst"]
    ports += [f"    input {w}{name}" for name in m.data_inputs]
    ports += [f"    input {name}" for name in m.enables]
    ports += [f"    output {w}{name}" for name in m.outputs]
    lines = []
    if header:
        lines.append(header)
    lines.append(f"module {m.name} (")
    lines.append(",\n".join(ports))
    lines.append(");")
    for name in m.regs:
        lines.append(f"reg {w}{name};")
    if m.case_target:
        lines.append("reg [1:0] state;")
        lines.append(f"reg {w}{m.case_target};")
    for name in m.wires:
        lines.append(f"wire {w}{name};")
    lines.append("")
    for s in m.assigns:
        lines.append(f"assign {s.target} = {_expr_text(s.expr)};")
    lines.append("")
    lines.append("always @(posedge clk or posedge rst) begin")
    lines.append("  if (rst) begin")
    for name in m.regs:
        lines.append(f"    {name} <= 0;")
    if m.case_target:
        lines.append("    state <= 0;")
    lines.append("  end else begin")
    for i, s in enumerate(m.seq):
        if m.enables and i % 3 == 2:
            lines.append(f"    if ({m.enables[i % len(m.enables)]}) begin")
            lines.append(f"      {s.target} <= {_expr_text(s.expr)};")
            lines.append("    end")
        else:
            lines.append(f"    {s.target} <= {_expr_text(s.expr)};")
    if m.case_target:
        lines.append("    state <= state + 2'd1;")
    lines.append("  end")
    lines.append("end")
    if m.case_target:
        lines.append("")
        lines.append("always @(*) begin")
        lines.append("  case (state)")
        for i, s in enumerate(m.case_arms):
            lines.append(f"    2'd{i}: {s.target} = {_expr_text(s.expr)};")
        lines.append(f"    default: {m.case_target} = 0;")
        lines.append("  endcase")
        lines.append("end")
    lines.append("")
    if breakage == "initial":
        lines.append("initial begin")
        lines.append(f"  {m.regs[0]} = 0;")
        lines.append("end")
    lines.append("endmodule")
    text = "\n".join(lines) + "\n"
    if breakage == "semicolon":
        # Drop the semicolon of the first continuous assignment.
        semi = text.index(";", text.index("\nassign "))
        text = text[:semi] + text[semi + 1:]
    return text


def make_module(rng: random.Random, name: str, target_lines: int) -> VModule:
    """A clocked datapath in the parser's subset, grown to about
    ``target_lines`` rendered lines."""
    width = rng.choice((8, 16))
    m = VModule(name=name, width=width, data_inputs=["in_0", "in_1", "in_2"],
                enables=["en_0", "en_1"], outputs=[], regs=[], wires=[])
    with_case = target_lines >= 40
    if with_case:
        m.case_target = "mux_q"
    n = 0
    while True:
        n += 1
        reg = f"r_{n}"
        wire = f"w_{n}"
        m.regs.append(reg)
        m.wires.append(wire)
        pool = m.sources()
        m.assigns.append(Stmt(wire, _expr(rng, pool, width, n % 4)))
        m.seq.append(Stmt(reg, _expr(rng, pool, width, (n + 2) % 4)))
        if n % 2 == 0:
            out = f"out_{len(m.outputs)}"
            m.outputs.append(out)
            m.assigns.append(Stmt(out, ("id", reg)))
        if len(render_module(m).splitlines()) >= target_lines - (8 if with_case else 0):
            break
    if not m.outputs:
        m.outputs.append("out_0")
        m.assigns.append(Stmt("out_0", ("id", m.regs[-1])))
    if with_case:
        pool = m.sources()
        m.case_arms = [Stmt("mux_q", _expr(rng, pool, width, 4)) for _ in range(3)]
        m.outputs.append("out_mux")
        m.assigns.append(Stmt("out_mux", ("id", "mux_q")))
    return m


def _all_stmts(m: VModule) -> list[Stmt]:
    return m.assigns + m.seq + m.case_arms


def _copy(m: VModule) -> VModule:
    return VModule(name=m.name, width=m.width, data_inputs=list(m.data_inputs),
                   enables=list(m.enables), outputs=list(m.outputs),
                   regs=list(m.regs), wires=list(m.wires),
                   assigns=[Stmt(s.target, s.expr) for s in m.assigns],
                   seq=[Stmt(s.target, s.expr) for s in m.seq],
                   case_target=m.case_target,
                   case_arms=[Stmt(s.target, s.expr) for s in m.case_arms])


def _swap_first(e: tuple, pick, replace) -> tuple[tuple, bool]:
    """Rewrite the first node for which ``pick`` holds."""
    if pick(e):
        return replace(e), True
    if e[0] in ("bin", "tern", "un"):
        parts = list(e)
        for i in range(1, len(parts)):
            if isinstance(parts[i], tuple):
                parts[i], done = _swap_first(parts[i], pick, replace)
                if done:
                    return tuple(parts), True
    return e, False


def mutate(m: VModule, rng: random.Random, kind: str) -> VModule:
    """One seeded edit. ``op`` swaps a binary operator and keeps the
    dataflow graph; ``src`` replaces a source signal, ``drop`` removes a
    statement and ``add`` adds one, which change it."""
    out = _copy(m)
    stmts = _all_stmts(out)
    if kind == "op":
        s = rng.choice([s for s in stmts if "'bin'" in repr(s.expr)])
        s.expr, _ = _swap_first(
            s.expr, lambda e: e[0] == "bin",
            lambda e: ("bin", rng.choice([o for o in _OPS if o != e[1]]), e[2], e[3]))
        return out
    if kind == "src":
        pool = out.sources()
        s = rng.choice([s for s in stmts if "'id'" in repr(s.expr)])
        present = repr(s.expr)
        fresh = [p for p in pool if f"'{p}'" not in present and p != s.target]
        s.expr, _ = _swap_first(s.expr, lambda e: e[0] == "id",
                                lambda e: ("id", rng.choice(fresh)))
        return out
    if kind == "drop":
        victim = rng.randrange(len(out.seq))
        del out.seq[victim]
        return out
    if kind == "add":
        pool = out.sources()
        out.seq.append(Stmt(rng.choice(out.regs), _expr(rng, pool, out.width, 0)))
        return out
    raise ValueError(kind)


def spec_text(m: VModule, row_id: str) -> str:
    lines = [
        f"{ROW_TAG.format(row_id)} Module name: {m.name}.",
        f"A clocked datapath of {len(m.regs)} {m.width}-bit registers with an "
        f"asynchronous active-high reset rst on clock clk.",
        "Inputs: " + ", ".join(m.data_inputs + m.enables) + ".",
        "Outputs: " + ", ".join(m.outputs) + ".",
    ]
    for s in m.seq[:6]:
        lines.append(f"On each rising edge {s.target} loads {_expr_text(s.expr)}.")
    if m.case_target:
        lines.append("A two-bit state counter selects the mux_q source each cycle.")
    return "\n".join(lines)


# ------------------------------------------------------------ testbenches

def render_testbench(dut: str, total: int, marker: str = "", scaffold: bool = True,
                     epilogue: bool = True) -> str:
    """A testbench in the pipeline's required display format."""
    lines = []
    if marker:
        lines.append(marker)
    lines += ["`timescale 1ns / 1ps", "module testbench;", "reg clk;", "reg rst;"]
    if epilogue:
        lines.append("integer error_count;")
    lines += [f"{dut} uut (.clk(clk), .rst(rst));", "always #5 clk = ~clk;",
              "initial begin", "  clk = 0;", "  rst = 1;"]
    if epilogue:
        lines.append("  error_count = 0;")
    lines.append("  #20 rst = 0;")
    if scaffold:
        lines.append('  $display("===========TestCases===========");')
    for i in range(1, total + 1):
        lines += [f"  // Test Case {i}",
                  "  #10;",
                  f'  $display("Test Case {i}. Expected out_0: {i}");',
                  f'  $display("Test Case {i}. Actual out_0: %d", uut.out_0);']
        if epilogue:
            lines.append(f"  if (uut.out_0 !== {i}) error_count = error_count + 1;")
    lines.append('  $display("===========End===========");')
    if epilogue:
        lines += ["  if (error_count == 0) begin",
                  '    $display("Your Design Passed");',
                  "  end else begin",
                  '    $display("Test with %0d failures", error_count);',
                  "  end"]
    lines += ["  $finish;", "end", "endmodule"]
    return "\n".join(lines) + "\n"


def marker_line(**fields) -> str:
    """First-line directive the stand-in simulator obeys."""
    return "// bench: " + " ".join(f"{k}={v}" for k, v in fields.items())


def coverage_percent(covered: int, total: int) -> float:
    """The percent the stand-in prints: two decimals, rounded half up,
    computed with the same integer arithmetic as the shell script."""
    p100 = (2 * covered * 10000 + total) // (2 * total)
    return float(f"{p100 // 100}.{p100 % 100:02d}")


# --------------------------------------------------------------- tbgen plan

@dataclass(frozen=True)
class Reply:
    """One planned chat response. ``kind`` is points, cases, bad_json or tb."""
    kind: str
    compile_ok: bool = True
    scaffold: bool = True
    epilogue: bool = True
    cov: tuple[int, int] = (0, 0)
    fails: int = 0
    total: int = 5


def _hi(rng):
    t = rng.randint(24, 40)
    return (rng.randint(-(-9 * t // 10), t), t)


def _lo(rng):
    t = rng.randint(24, 40)
    return (rng.randint(t // 3, (7 * t) // 10), t)


def _tb(rng, **kw):
    kw.setdefault("cov", _hi(rng))
    kw.setdefault("total", rng.randint(3, 6))
    return Reply("tb", **kw)


P, C, BAD = Reply("points"), Reply("cases"), Reply("bad_json")


def _scenario(name: str, rng: random.Random):
    """(analyze replies, main-conversation replies) for one scenario."""
    ok = [P, C]
    good = lambda: _tb(rng)  # noqa: E731
    if name == "first_try":
        return ok, [good()]
    if name == "reask_points":
        return [BAD, P, C], [good()]
    if name == "reask_cases":
        return [P, BAD, C], [good()]
    if name == "scaffold_reask":
        return ok, [_tb(rng, scaffold=False), good()]
    if name == "draft_fail_once":
        return ok, [_tb(rng, compile_ok=False), good()]
    if name == "draft_fail_twice":
        return ok, [_tb(rng, compile_ok=False), _tb(rng, compile_ok=False), good()]
    if name == "improve_once":
        return ok, [_tb(rng, cov=_lo(rng)), good()]
    if name == "improve_compile_fail":
        return ok, [_tb(rng, cov=_lo(rng)), _tb(rng, compile_ok=False), good()]
    if name == "rectify_once":
        return ok, [_tb(rng, fails=2), good()]
    if name == "rectify_epilogue":
        return ok, [_tb(rng, epilogue=False, fails=1), good()]
    if name == "rectify_twice":
        return ok, [_tb(rng, fails=3), _tb(rng, fails=1), good()]
    if name == "term_analyze_points":
        return [BAD, BAD], []
    if name == "term_analyze_cases":
        return [P, BAD, BAD], []
    if name == "term_draft_compile":
        return ok, [_tb(rng, compile_ok=False) for _ in range(3)]
    if name == "term_draft_scaffold":
        return ok, [_tb(rng, scaffold=False), _tb(rng, scaffold=False)]
    if name == "term_improve":
        return ok, [_tb(rng, cov=_lo(rng)) for _ in range(3)]
    if name == "term_rectify":
        return ok, [_tb(rng, fails=2)] + [_tb(rng, fails=1) for _ in range(3)]
    raise ValueError(name)


# Rows per tbgen batch by scenario; 9 of 40 rows terminate, at all four stages.
TBGEN_MIX = {
    "first_try": 7, "reask_points": 2, "reask_cases": 2, "scaffold_reask": 3,
    "draft_fail_once": 3, "draft_fail_twice": 2, "improve_once": 3,
    "improve_compile_fail": 2, "rectify_once": 3, "rectify_epilogue": 2,
    "rectify_twice": 2, "term_analyze_points": 1, "term_analyze_cases": 1,
    "term_draft_compile": 2, "term_draft_scaffold": 1, "term_improve": 2,
    "term_rectify": 2,
}

# Share of planned chat requests that first get one transient 503.
TRANSIENT_503_SHARE = 0.02


@dataclass(frozen=True)
class Expected:
    """What the pipeline must do with one row, from ``walk``."""
    outcome: str                 # "finished" or a TerminationStage value
    attempts: int                # of the terminating stage
    provenance: tuple[int, int, int]
    final_reply: int             # index of the final testbench in main replies
    coverage: float | None
    testcase_count: int
    analyze_prompts: tuple[str, ...]
    main_prompts: tuple[str, ...]
    sim_processes: int

    @property
    def chat_calls(self) -> int:
        return len(self.analyze_prompts) + len(self.main_prompts)


def walk(analyze: list[Reply], main: list[Reply]) -> Expected:
    """Model the Analyze/Draft/Improve/Rectify rules over planned replies.

    Records which prompt kind asks for each reply, the outcome, the
    provenance counters, and the stand-in processes the row starts.
    """
    a_prompts: list[str] = []
    m_prompts: list[str] = []
    sims = 0

    def end(outcome, attempts, prov=(0, 0, 0), final=-1, cov=None, total=0):
        return Expected(outcome, attempts, prov, final, cov, total,
                        tuple(a_prompts), tuple(m_prompts), sims)

    ai = 0
    for part in ("points", "cases"):
        a_prompts.append(part)
        reply = analyze[ai]
        ai += 1
        if reply.kind == "bad_json":
            a_prompts.append("reask")
            reply = analyze[ai]
            ai += 1
            if reply.kind == "bad_json":
                return end("Analyze", 0)
        if reply.kind != part:
            raise ValueError(f"planned {reply.kind} where {part} is asked")

    mi = 0

    def ask(kind):
        nonlocal mi
        m_prompts.append(kind)
        mi += 1
        return mi - 1, main[mi - 1]

    scaffold_used = False
    prompt = "draft"
    tb_index = None
    for attempt in range(1, MAX_DRAFT + 1):
        idx, reply = ask(prompt)
        if not reply.scaffold:
            if scaffold_used:
                return end("DraftCompile", MAX_DRAFT)
            scaffold_used = True
            idx, reply = ask("scaffold_feedback")
            if not reply.scaffold:
                return end("DraftCompile", MAX_DRAFT)
        sims += 1
        if reply.compile_ok:
            tb_index, draft_attempts = idx, attempt
            break
        prompt = "draft_feedback"
    else:
        return end("DraftCompile", MAX_DRAFT)

    attempts = rounds = 0
    while True:
        sims += 1
        cov = main[tb_index].cov
        if coverage_percent(*cov) >= COVERAGE_THRESHOLD:
            break
        attempts += 1
        if attempts >= MAX_IMPROVE:
            return end("ImproveCoverage", attempts)
        prompt = "improve"
        while True:
            idx, reply = ask(prompt)
            rounds += 1
            sims += 1
            if reply.compile_ok:
                tb_index = idx
                break
            attempts += 1
            if attempts >= MAX_IMPROVE:
                return end("ImproveCoverage", attempts)
            prompt = "improve_feedback"
    coverage = coverage_percent(*main[tb_index].cov)

    if not main[tb_index].epilogue:
        tb_index, _ = ask("rectify")
    iterations = 0
    while True:
        current = main[tb_index]
        sims += 2 if current.compile_ok else 1
        if current.compile_ok and current.fails == 0:
            return end("finished", 0, (draft_attempts, rounds, iterations),
                       tb_index, coverage, current.total)
        if iterations >= MAX_RECTIFY:
            return end("RectifyVerify", iterations)
        iterations += 1
        tb_index, _ = ask("rectify")


@dataclass
class TbgenRow:
    id: str
    module: VModule
    code: str
    spec: str
    analyze: list[Reply]
    main: list[Reply]
    scenario: str
    expected: Expected
    # (conversation, reply index) -> injected latency in seconds
    chat_latency: dict = field(default_factory=dict)
    sim_latency: dict = field(default_factory=dict)   # reply index -> (cs, rs, vs)
    transient_503: set = field(default_factory=set)


def _latencies(rng: random.Random, count: int, low: float, high: float) -> list[float]:
    """Evenly spread latencies in a seeded order, so every seed injects the
    same total."""
    values = [low + (high - low) * (i + 0.5) / count for i in range(count)]
    rng.shuffle(values)
    return values


def _row_sizes(rng: random.Random, count: int, low: int, high: int) -> list[int]:
    """Evenly spread line targets, shuffled by ``rng``."""
    step = (high - low) / max(1, count - 1)
    sizes = [round(low + i * step) for i in range(count)]
    rng.shuffle(sizes)
    return sizes


def make_tbgen(seed: int, scale: int = 1) -> list[TbgenRow]:
    rng = random.Random(f"tbgen:{seed}")
    # The layout (which scenario and module size sits at which position) is
    # the same for every seed: with two workers the rows that run last set
    # the batch's end, so a seeded order would add spread between seeds.
    layout = random.Random("tbgen-layout")
    names = [n for n, k in TBGEN_MIX.items() for _ in range(k * scale)]
    layout.shuffle(names)
    sizes = _row_sizes(layout, len(names), 20, 150)
    rows = []
    for i, (name, size) in enumerate(zip(names, sizes)):
        row_id = f"tb{i:04d}"
        module = make_module(rng, f"dut_{i:04d}", size)
        analyze, main = _scenario(name, rng)
        row = TbgenRow(id=row_id, module=module, code=render_module(module),
                       spec=spec_text(module, row_id), analyze=analyze, main=main,
                       scenario=name, expected=walk(analyze, main))
        rows.append(row)
    chat_keys = [(r, (conv, k)) for r in rows
                 for conv, replies in (("analyze", r.analyze), ("main", r.main))
                 for k in range(len(replies))]
    for (row, key), latency in zip(chat_keys, _latencies(rng, len(chat_keys), 0.020, 0.040)):
        row.chat_latency[key] = latency
    sim_keys = [(r, k) for r in rows for k in range(len(r.main))]
    spread = iter(_latencies(rng, 3 * len(sim_keys), 0.002, 0.006))
    for row, k in sim_keys:
        row.sim_latency[k] = tuple(round(next(spread), 4) for _ in range(3))
    # A fixed share of the requests the walk predicts gets one 503 first.
    keys = [(r.id, conv, k) for r in rows
            for conv, prompts in (("analyze", r.expected.analyze_prompts),
                                  ("main", r.expected.main_prompts))
            for k in range(len(prompts))]
    by_id = {r.id: r for r in rows}
    for row_id, conv, k in rng.sample(keys, round(TRANSIENT_503_SHARE * len(keys))):
        by_id[row_id].transient_503.add((conv, k))
    return rows


def tbgen_marker(row: TbgenRow, k: int) -> str:
    reply = row.main[k]
    cs, rs, vs = row.sim_latency[k]
    return marker_line(row=row.id, v=k, compile="ok" if reply.compile_ok else "fail",
                       cov=f"{reply.cov[0]}/{reply.cov[1]}", fails=reply.fails,
                       total=reply.total, cs=cs, rs=rs, vs=vs)


def tbgen_testbench(row: TbgenRow, k: int) -> str:
    reply = row.main[k]
    return render_testbench(row.module.name, reply.total, tbgen_marker(row, k),
                            scaffold=reply.scaffold, epilogue=reply.epilogue)


# --------------------------------------------------------------- pairs plans

@dataclass
class PairsRow:
    id: str
    spec: str
    code: str                    # reference
    candidates: list[str]        # candidate modules, in sampling order
    # pairs-testbench: per candidate "C" (compile failure), "X" (crash) or
    # the passed count; pairs-dfg: the mutation kind
    plan: list
    tb: str = ""
    total: int = 5
    chat_latency: list[float] = field(default_factory=list)


# Planned outcomes per spec for pairs-testbench, used in turn so a batch
# holds each the same number of times; order within a spec is seeded.
TESTBENCH_OUTCOMES = (
    (5, 4, 4, 3, 1, 0, "C", "X"),
    (5, 5, 3, 2, 2, "C", "C", 1),
    (4, 3, 3, 3, 2, "X", 0, 5),
    (2, 2, 2, 2, 1, 1, "C", "X"),
)

# Mutation kinds per spec for pairs-dfg. Two operator swaps keep the
# reference's dataflow graph, so they tie with each other; "break" does
# not parse.
DFG_MUTATIONS = (
    ("op", "op", "src", "src", "drop", "add", "src", "break"),
    ("op", "op", "src", "drop", "add", "src", "drop", "add"),
)


def make_pairs_testbench(seed: int, specs: int) -> list[PairsRow]:
    rng = random.Random(f"pairs-testbench:{seed}")
    sizes = _row_sizes(random.Random("pairs-testbench-layout"), specs, 20, 60)
    rows = []
    for i in range(specs):
        row_id = f"pt{i:04d}"
        module = make_module(rng, f"dut_{i:04d}", sizes[i])
        plan = list(TESTBENCH_OUTCOMES[i % len(TESTBENCH_OUTCOMES)])
        rng.shuffle(plan)
        total = 5
        candidates = []
        sim_latency = iter(_latencies(rng, 2 * len(plan), 0.002, 0.006))
        for k, outcome in enumerate(plan):
            cand = mutate(module, rng, rng.choice(("op", "src", "drop", "add")))
            fields = {"row": row_id, "v": k}
            if outcome == "C":
                fields["compile"] = "fail"
            elif outcome == "X":
                fields["crash"] = 1
            else:
                fields["fails"] = total - outcome
                fields["total"] = total
            fields["cs"] = round(next(sim_latency), 4)
            fields["rs"] = round(next(sim_latency), 4)
            candidates.append(render_module(cand, header=marker_line(**fields)))
        rows.append(PairsRow(
            id=row_id, spec=spec_text(module, row_id), code=render_module(module),
            candidates=candidates, plan=plan,
            tb=render_testbench(module.name, total), total=total,
            chat_latency=_latencies(rng, len(plan), 0.020, 0.040)))
    return rows


def make_pairs_dfg(seed: int, specs: int) -> list[PairsRow]:
    rng = random.Random(f"pairs-dfg:{seed}")
    # Fixed layout: which module size gets the unparseable candidate changes
    # the parsing work, so it must not depend on the seed.
    sizes = _row_sizes(random.Random("pairs-dfg-layout"), specs, 20, 150)
    rows = []
    for i in range(specs):
        row_id = f"pd{i:04d}"
        module = make_module(rng, f"dut_{i:04d}", sizes[i])
        # Fixed order too: where the unparseable candidate sits decides
        # how many of its pairs parse the other side first.
        plan = list(DFG_MUTATIONS[i % len(DFG_MUTATIONS)])
        candidates = []
        breakages = ("initial", "semicolon")
        for k, kind in enumerate(plan):
            header = f"// candidate {k}"
            if kind == "break":
                text = render_module(mutate(module, rng, "op"), header=header,
                                     breakage=breakages[i // 2 % 2])
            else:
                text = render_module(mutate(module, rng, kind), header=header)
            candidates.append(text)
        rows.append(PairsRow(id=row_id, spec=spec_text(module, row_id),
                             code=render_module(module), candidates=candidates,
                             plan=plan, chat_latency=[0.0] * len(plan)))
    return rows


# Run results the mock simulator replays for every pairs-dfg spec: candidate
# k passes DFG_PASSED[k] of 5 cases.
DFG_PASSED = (5, 4, 3, 5, 2, 1, 4, 3)


def dfg_mock_script() -> list[dict]:
    script = []
    for passed in DFG_PASSED:
        script.append({"kind": "compile", "ok": True})
        script.append({"kind": "run", "total": 5, "failures": 5 - passed})
    return script


def expected_testbench_pairs(row: PairsRow) -> tuple[list[tuple], dict]:
    """The pass-count rule, written independently of tbforge.preference:
    over all candidate pairs in order, compile failures and crashes
    discard, equal pass counts discard, otherwise the higher count is
    chosen; at most PAIR_CAP pairs per spec, and pairs past the cap are
    neither emitted nor counted as discards."""
    pairs = []
    discards = {"compile_failure": 0, "aborted": 0, "tie": 0}
    for i, j in combinations(range(len(row.plan)), 2):
        a, b = row.plan[i], row.plan[j]
        if a == "C" or b == "C":
            discards["compile_failure"] += 1
        elif a == "X" or b == "X":
            discards["aborted"] += 1
        elif a == b:
            discards["tie"] += 1
        elif len(pairs) < PAIR_CAP:
            win, lose = (i, j) if a > b else (j, i)
            pairs.append((win, lose, row.plan[win], row.plan[lose]))
    return pairs, discards


def expected_eval(outcome, total: int) -> dict:
    if outcome == "C":
        return {"compile_ok": False, "passed": 0, "total": 0, "status": "compile_error"}
    if outcome == "X":
        return {"compile_ok": True, "passed": 0, "total": 0, "status": "crash"}
    return {"compile_ok": True, "passed": outcome, "total": total, "status": "report"}


def dfg_parse_discards(rows: list[PairsRow]) -> int:
    total = 0
    for row in rows:
        bad = row.plan.count("break")
        n = len(row.plan)
        total += n * (n - 1) // 2 - (n - bad) * (n - bad - 1) // 2
    return total


# ------------------------------------------------------------------ files

def write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")


def write_spec_corpus(path: Path, rows) -> None:
    write_jsonl(path, ({"id": r.id, "spec": r.spec, "code": r.code} for r in rows))


def write_testbench_corpus(path: Path, rows: list[PairsRow]) -> None:
    write_jsonl(path, ({"id": r.id, "tb": r.tb, "testcase_count": r.total,
                        "provenance": {"draft_attempts": 1, "improve_rounds": 0,
                                       "rectify_iterations": 0}}
                       for r in rows))
