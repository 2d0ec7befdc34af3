#!/usr/bin/env python3
"""AST-model static analysis for the Nemesis self-paging reproduction.

Where tools/lint.py pattern-matches single lines, this tool builds a model of
the program — classes and their members, function definitions, and the calls
they make with receiver-type resolution — and checks project rules against
that model:

  task-lifetime          Every Simulator::Spawn result is either consumed
                         (stored into an owned handle container, assigned,
                         joined) or explicitly discarded
                         with NEM_DETACHED(...) carrying a justification
                         comment. Additionally, every class owning task
                         handles (OwnedTaskSet, TaskHandle, or a
                         vector<TaskHandle> member assigned from Spawn) must
                         kill them in some method (Stop() / destructor) — the
                         PR-6 orphan-task bug class, caught statically.

  authority-ramtab       RamTab mutation (SetOwner/SetMapped/SetUnused/
                         SetNailed) is confined to the ownership authorities.
                         Unlike the old lint rule this resolves the receiver:
                         `auto& rt = kernel->ramtab(); rt.SetOwner(...)` is
                         caught, and an unrelated class's SetOwner is not.

  authority-framestack   FrameStack *membership* mutation (PushTop/PushBottom/
                         PopTop/Remove) is confined to the frames allocator;
                         drivers may only reorder (MoveToTop/MoveToBottom).
                         Receiver-resolved like authority-ramtab.

  authority-stats        Raw uint64_t members whose names read like counters
                         belong in the metrics layer: use StatCounter
                         (src/obs/counter.h). Checked on the class-member
                         model, not on line regexes.

  determinism-clock      src/sim and src/core must not consult wall clocks or
                         nondeterministic generators (system_clock,
                         steady_clock, gettimeofday, std::rand,
                         random_device, ...): simulation output must be a
                         pure function of config and seeds.

  determinism-unordered  src/sim and src/core must not iterate an unordered
                         container while emitting trace/CSV/stdout records:
                         hash-order would leak into byte-compared output.

Frontends: with python3-clang + libclang installed (the CI `analysis` job),
`--frontend cindex` parses real ASTs via clang.cindex; the default `auto`
uses it when importable and falls back — per translation unit — to the
self-contained tokenizer frontend (`--frontend text`), which needs nothing
outside the Python standard library. Both produce the same model; the rules
are frontend-agnostic. Fixture tests (tests/analyze_fixtures/) pin the text
frontend so they pass on any machine.

Usage:
  tools/analyze.py --all                      # whole src/ tree, all rules
  tools/analyze.py --rule task-lifetime f.cc  # one rule, explicit files
  tools/analyze.py --list-rules

Exits non-zero if any rule fires.
"""

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

# --- Model -------------------------------------------------------------------


@dataclass
class Member:
    cls: str
    name: str
    type: str
    file: str
    line: int


@dataclass
class Call:
    callee: str          # bare method/function name
    receiver: str        # receiver chain text ("" for free calls)
    receiver_type: str   # resolved type name, or ""
    line: int


@dataclass
class Function:
    qname: str           # "Class::Name" or "Name"
    cls: str             # enclosing class, "" for free functions
    file: str
    line: int
    body: str = ""
    calls: list = field(default_factory=list)
    params: dict = field(default_factory=dict)   # name -> type
    locals: dict = field(default_factory=dict)   # name -> type


@dataclass
class Model:
    functions: dict = field(default_factory=dict)   # qname -> Function
    members: list = field(default_factory=list)     # [Member]
    classes: dict = field(default_factory=dict)     # cls -> {member -> type}
    files: dict = field(default_factory=dict)       # relpath -> lexed text
    raw_files: dict = field(default_factory=dict)   # relpath -> raw text

    def methods_of(self, cls):
        return [f for f in self.functions.values() if f.cls == cls]


# Getters whose return type is known project-wide; lets receiver resolution
# follow `env_.kernel->ramtab().SetOwner(...)` and aliases bound from them.
GETTER_RETURN_TYPES = {
    "ramtab": "RamTab",
    "StackOf": "FrameStack",
    "frames": "FramesAllocator",
    "syscalls": "TranslationSyscalls",
}

# Members with these spellings resolve without a declaration in the model
# (references held across compilation units the analyzer was not given).
WELL_KNOWN_MEMBER_TYPES = {
    "ramtab_": "RamTab",
    "stack_": "FrameStack",
}

CPP_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "co_await",
    "co_return", "co_yield", "catch", "new", "delete", "static_cast",
    "reinterpret_cast", "const_cast", "dynamic_cast", "decltype", "assert",
    "defined", "throw", "noexcept", "alignas", "typeid",
}

# --- Lexer (text frontend) ---------------------------------------------------


def lex(text):
    """Blanks out comments, string and char literals, preserving newlines."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            seg = text[i:j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in seg))
            i = j + 2
        elif c in "\"'":
            q = c
            j = i + 1
            while j < n and text[j] != q:
                j += 2 if text[j] == "\\" else 1
            out.append(q + " " * (min(j, n - 1) - i - 1) + q)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def match_paren(text, open_idx):
    """Index of the ')' matching the '(' at open_idx, or -1."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


def match_brace(text, open_idx):
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return -1


def line_of(text, idx):
    return text.count("\n", 0, idx) + 1


# --- Text frontend: scope scanner -------------------------------------------

CLASS_RE = re.compile(r"\b(?:class|struct)\s+(?:NEM_\w+\s*(?:\([^)]*\)\s*)?)*(\w+)")
FUNC_HEADER_RE = re.compile(
    r"((?:~?\w+\s*::\s*)*~?\w+)\s*\(", re.S)
MEMBER_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+|static\s+constexpr\s+|static\s+)?"
    r"((?:std\s*::\s*)?[A-Za-z_][\w:]*(?:\s*<[^;=]*?>)?(?:\s*[&*])*)"
    r"\s+(\w+)\s*"
    r"(?:NEM_GUARDED_BY\s*\([^)]*\)\s*)?"
    r"(?:=\s*[^;]+|\{[^;]*\})?;", re.M)
LOCAL_DECL_RE = re.compile(
    r"(?:^|[;{}\(])\s*(?:const\s+)?"
    r"((?:std\s*::\s*)?[A-Za-z_][\w:]*(?:<[^;=()]*?>)?(?:\s*[&*])*|auto\s*&?)"
    r"\s+(\w+)\s*(?:=\s*([^;]+))?;")
CALL_RE = re.compile(r"([\w\]\)>\.\->:]*?)\b(~?[A-Za-z_]\w*)\s*\(")
RECEIVER_TAIL_RE = re.compile(r"([\w()]+(?:\(\))?)\s*(?:\.|->)\s*$")


def statement_start(text, idx):
    """Index just past the last ; { or } before idx (paren-depth naive)."""
    for i in range(idx - 1, -1, -1):
        if text[i] in ";{}":
            return i + 1
    return 0


def split_params(paramlist):
    """'(Type a, Type b = x)' -> {a: Type, b: Type}. Best-effort."""
    out = {}
    depth = 0
    parts, cur = [], []
    for ch in paramlist:
        if ch in "<(":
            depth += 1
        elif ch in ">)":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    for p in parts:
        p = p.split("=", 1)[0].strip()
        m = re.match(r"(.+?)\s*[&*]*\s*(\w+)$", p)
        if m and m.group(2) not in ("const", "override", "final"):
            out[m.group(2)] = normalize_type(m.group(1))
    return out


def normalize_type(t):
    t = re.sub(r"\bconst\b|\bmutable\b|[&*]", " ", t)
    t = re.sub(r"\s+", " ", t).strip()
    return t


def resolve_init_type(init):
    """Type of an initializer expression, via the getter map."""
    init = init.strip()
    m = re.search(r"(\w+)\s*\(\s*[^()]*\)\s*$", init)
    if m and m.group(1) in GETTER_RETURN_TYPES:
        return GETTER_RETURN_TYPES[m.group(1)]
    return ""


class TextFrontend:
    """Builds the Model from lexed source, no compiler required."""

    def __init__(self, model):
        self.model = model

    def add_file(self, relpath, raw):
        text = lex(raw)
        self.model.files[relpath] = text
        self.model.raw_files[relpath] = raw
        self.scan(relpath, text)

    def scan(self, relpath, text):
        i = 0
        n = len(text)
        scope = []  # list of (kind, name) where kind in {class, other}
        stmt_begin = 0
        while i < n:
            c = text[i]
            if c in ";}":
                if c == "}" and scope:
                    scope.pop()
                stmt_begin = i + 1
                i += 1
                continue
            if c != "{":
                i += 1
                continue
            header = text[stmt_begin:i]
            # enum/initializer braces: treat as opaque, skip whole block
            hstrip = header.strip()
            close = match_brace(text, i)
            if close < 0:
                close = n - 1
            cm = CLASS_RE.search(header)
            is_class = (cm and not re.search(r"\benum\b", header)
                        and "(" not in header.split(cm.group(0))[0])
            fm = None
            if not is_class:
                fm = self.function_header(header)
            if is_class:
                cls = cm.group(1)
                scope.append(("class", cls))
                self.model.classes.setdefault(cls, {})
                stmt_begin = i + 1
                i += 1
                continue
            if fm:
                self.record_function(relpath, text, scope, header, fm, i, close)
                stmt_begin = close + 1
                i = close + 1
                continue
            if re.search(r"\bnamespace\b", header) or hstrip.endswith("extern"):
                scope.append(("other", ""))
                stmt_begin = i + 1
                i += 1
                continue
            # opaque block (enum body, array initializer, ...): skip it
            stmt_begin = close + 1
            i = close + 1
        # members: per class body, re-scan (cheap second pass)
        self.scan_members(relpath, text)

    def function_header(self, header):
        """Returns (name, params_text) when header looks like a function
        definition, else None."""
        h = header.strip()
        if not h or h.endswith(("=", ",", "enum")):
            return None
        if re.search(r"\b(?:enum|namespace)\b", h):
            return None
        # find the last top-level (...) group — the parameter list
        depth = 0
        close = -1
        for idx in range(len(h) - 1, -1, -1):
            ch = h[idx]
            if ch == ")":
                if depth == 0 and close < 0:
                    # trailing qualifiers allowed after the param list
                    tail = h[idx + 1:]
                    if not re.fullmatch(
                            r"[\s\w]*(?:NEM_\w+\s*(?:\([^)]*\))?)?[\s\w]*",
                            tail):
                        return None
                depth += 1
            elif ch == "(":
                depth -= 1
                if depth == 0:
                    close = idx
                    break
        if close < 0:
            return None
        open_idx = close
        close_idx = match_paren(h, open_idx)
        if close_idx < 0:
            return None
        before = h[:open_idx].rstrip()
        m = re.search(r"((?:~?\w+\s*::\s*)*~?\w+)$", before)
        if not m:
            return None
        name = re.sub(r"\s", "", m.group(1))
        bare = name.split("::")[-1]
        if bare.lstrip("~") in CPP_KEYWORDS or bare in ("operator",):
            return None
        # control-flow statements are not definitions
        if re.match(r"(?:if|for|while|switch|catch)$", bare):
            return None
        return name, h[open_idx + 1:close_idx]

    def record_function(self, relpath, text, scope, header, fm, brace, close):
        name, params_text = fm
        cls = ""
        for kind, sname in reversed(scope):
            if kind == "class":
                cls = sname
                break
        if "::" in name:
            qname = name
            cls = "::".join(name.split("::")[:-1])
        elif cls:
            qname = f"{cls}::{name}"
        else:
            qname = name
        fn = Function(
            qname=qname, cls=cls, file=relpath,
            line=line_of(text, brace),
            body=text[brace + 1:close],
        )
        fn.params = split_params(params_text)
        self.collect_locals(fn)
        self.collect_calls(fn, text, brace + 1, close)
        # a redefinition (e.g. template specialization) keeps the first entry
        self.model.functions.setdefault(qname, fn)

    def collect_locals(self, fn):
        for m in LOCAL_DECL_RE.finditer(fn.body):
            type_text, name, init = m.group(1), m.group(2), m.group(3)
            if name in CPP_KEYWORDS:
                continue
            t = normalize_type(type_text)
            if t in ("auto", "auto&", "auto &", ""):
                t = resolve_init_type(init or "")
            elif init and not t:
                t = resolve_init_type(init)
            if t and t not in ("return", "else"):
                fn.locals[name] = t

    def collect_calls(self, fn, text, body_begin, body_end):
        body = fn.body
        for m in CALL_RE.finditer(body):
            callee = m.group(2)
            if callee.lstrip("~") in CPP_KEYWORDS:
                continue
            pos = m.start(2)
            recv = ""
            rm = RECEIVER_TAIL_RE.search(body[:pos])
            if rm:
                recv = rm.group(1)
            fn.calls.append(Call(
                callee=callee,
                receiver=recv,
                receiver_type=self.resolve_receiver(fn, recv),
                line=line_of(text, body_begin + pos),
            ))

    def resolve_receiver(self, fn, recv):
        if not recv:
            return ""
        if recv.endswith("()"):
            getter = recv[:-2].split(".")[-1].split("->")[-1]
            return GETTER_RETURN_TYPES.get(getter, "")
        name = recv.split(".")[-1].split("->")[-1]
        if name in fn.locals:
            return fn.locals[name]
        if name in fn.params:
            return fn.params[name]
        if fn.cls:
            t = self.model.classes.get(fn.cls, {}).get(name, "")
            if t:
                return normalize_type(t).split("<")[0].split("::")[-1] \
                    if "<" not in t else normalize_type(t)
        if name in WELL_KNOWN_MEMBER_TYPES:
            return WELL_KNOWN_MEMBER_TYPES[name]
        if name == "this":
            return fn.cls
        return ""

    def scan_members(self, relpath, text):
        # For each class body found in the file, record member declarations.
        for cm in re.finditer(r"\b(?:class|struct)\s+(?:NEM_\w+\s*(?:\([^)]*\)\s*)?)*(\w+)"
                              r"[^;{(]*\{", text):
            cls = cm.group(1)
            open_idx = cm.end() - 1
            close = match_brace(text, open_idx)
            if close < 0:
                continue
            body = text[open_idx + 1:close]
            # strip nested braces (method bodies, nested classes) so only
            # class-level declarations remain
            flat = []
            depth = 0
            for ch in body:
                if ch == "{":
                    depth += 1
                elif ch == "}":
                    depth -= 1
                    continue
                if depth == 0:
                    flat.append(ch)
            flat = "".join(flat)
            for mm in MEMBER_DECL_RE.finditer(flat):
                type_text, name = mm.group(1), mm.group(2)
                t = normalize_type(type_text)
                if t in ("return", "using", "typedef", "case") or not name.endswith("_"):
                    continue
                self.model.classes.setdefault(cls, {})[name] = t
                self.model.members.append(Member(
                    cls=cls, name=name, type=t, file=relpath,
                    line=line_of(text, open_idx),
                ))


# --- cindex frontend ---------------------------------------------------------


class CindexFrontend:
    """clang.cindex-based model builder. Used when python3-clang + libclang
    are installed (the CI analysis job); falls back to TextFrontend per file
    on any parse failure, so a missing compile_commands.json entry never
    aborts the run."""

    def __init__(self, model, compile_db_dir=None):
        import clang.cindex as ci  # raises ImportError when unavailable
        self.ci = ci
        self.model = model
        self.text = TextFrontend(model)
        self.db = None
        if compile_db_dir:
            try:
                self.db = ci.CompilationDatabase.fromDirectory(compile_db_dir)
            except ci.CompilationDatabaseError:
                self.db = None
        self.index = ci.Index.create()

    def args_for(self, path):
        if self.db is not None:
            cmds = self.db.getCompileCommands(os.path.abspath(path))
            if cmds:
                args = list(cmds[0].arguments)[1:]
                # drop -c/-o pairs and the source file itself
                out, skip = [], False
                for a in args:
                    if skip:
                        skip = False
                        continue
                    if a in ("-c", "-o"):
                        skip = (a == "-o")
                        continue
                    if os.path.abspath(a) == os.path.abspath(path):
                        continue
                    out.append(a)
                return out
        return ["-std=c++20", "-I", "."]

    def add_file(self, relpath, raw):
        try:
            self._parse(relpath, raw)
        except Exception:
            # any cindex failure: fall back to the tokenizer for this TU
            self.text.add_file(relpath, raw)

    def _parse(self, relpath, raw):
        ci = self.ci
        tu = self.index.parse(relpath, args=self.args_for(relpath))
        fatal = [d for d in tu.diagnostics
                 if d.severity >= ci.Diagnostic.Fatal]
        if fatal:
            raise RuntimeError(f"{relpath}: {fatal[0].spelling}")
        self.model.files[relpath] = lex(raw)
        self.model.raw_files[relpath] = raw
        self._walk(tu.cursor, relpath)

    def _walk(self, cursor, relpath):
        ci = self.ci
        for node in cursor.walk_preorder():
            try:
                loc_file = node.location.file
            except Exception:
                continue
            if loc_file is None or os.path.relpath(str(loc_file)) != relpath:
                continue
            if node.kind in (ci.CursorKind.CLASS_DECL, ci.CursorKind.STRUCT_DECL):
                cls = node.spelling
                self.model.classes.setdefault(cls, {})
                for ch in node.get_children():
                    if ch.kind == ci.CursorKind.FIELD_DECL:
                        t = normalize_type(ch.type.spelling)
                        self.model.classes[cls][ch.spelling] = t
                        self.model.members.append(Member(
                            cls=cls, name=ch.spelling, type=t,
                            file=relpath, line=ch.location.line))
            elif node.kind in (ci.CursorKind.CXX_METHOD,
                               ci.CursorKind.FUNCTION_DECL,
                               ci.CursorKind.CONSTRUCTOR,
                               ci.CursorKind.DESTRUCTOR) and node.is_definition():
                self._record_function(node, relpath)

    def _record_function(self, node, relpath):
        ci = self.ci
        cls = ""
        parent = node.semantic_parent
        if parent is not None and parent.kind in (
                ci.CursorKind.CLASS_DECL, ci.CursorKind.STRUCT_DECL):
            cls = parent.spelling
        qname = f"{cls}::{node.spelling}" if cls else node.spelling
        ext = node.extent
        body = ""
        text = self.model.files.get(relpath, "")
        if text:
            lines = text.split("\n")
            body = "\n".join(lines[ext.start.line - 1:ext.end.line])
        fn = Function(qname=qname, cls=cls, file=relpath,
                      line=node.location.line, body=body)
        for p in node.get_arguments():
            fn.params[p.spelling] = normalize_type(p.type.spelling)
        for sub in node.walk_preorder():
            if sub.kind == ci.CursorKind.CALL_EXPR:
                callee = sub.spelling or ""
                if not callee:
                    continue
                recv_type = ""
                ref = sub.referenced
                if ref is not None and ref.semantic_parent is not None and \
                        ref.semantic_parent.kind in (
                            ci.CursorKind.CLASS_DECL,
                            ci.CursorKind.STRUCT_DECL):
                    recv_type = ref.semantic_parent.spelling
                fn.calls.append(Call(
                    callee=callee, receiver="", receiver_type=recv_type,
                    line=sub.location.line))
            elif sub.kind == ci.CursorKind.VAR_DECL:
                fn.locals[sub.spelling] = normalize_type(sub.type.spelling)
        self.model.functions.setdefault(qname, fn)


# --- Rules -------------------------------------------------------------------


@dataclass
class Violation:
    rule: str
    file: str
    line: int
    message: str

    def __str__(self):
        return f"{self.file}:{self.line}: [{self.rule}] {self.message}"


def in_dirs(relpath, dirs):
    return any(relpath.startswith(d + os.sep) or relpath == d for d in dirs)


# Rule: task-lifetime ---------------------------------------------------------

HANDLE_CONTAINER_TYPES = ("OwnedTaskSet",)
# Files that implement the task machinery itself, not users of it.
TASK_LIFETIME_EXEMPT = {os.path.join("src", "sim", "task.h"),
                        os.path.join("src", "sim", "simulator.h"),
                        os.path.join("src", "sim", "simulator.cc")}

SPAWN_CALL_RE = re.compile(r"\b(Spawn)\s*\(")


def rule_task_lifetime(model, violations):
    # (a) discarded Spawn results
    for relpath, text in model.files.items():
        if relpath in TASK_LIFETIME_EXEMPT:
            continue
        raw_lines = model.raw_files[relpath].split("\n")
        for m in SPAWN_CALL_RE.finditer(text):
            pos = m.start(1)
            stmt = statement_start(text, pos)
            prefix = text[stmt:pos]
            # receiver chain directly before the call is part of the root
            # expression; anything else consumes the result
            chain = re.search(r"[\w.\->:]+$", prefix)
            before_chain = prefix[:chain.start()] if chain else prefix
            if before_chain.strip():
                continue  # assigned / returned / nested in another call
            # NEM_DETACHED(...) wrapping?
            det = text.rfind("NEM_DETACHED", 0, pos)
            wrapped = False
            if det >= 0:
                op = text.find("(", det)
                if op >= 0:
                    cl = match_paren(text, op)
                    wrapped = op < pos < cl
            line = line_of(text, pos)
            if wrapped:
                # a justification comment must ride on the NEM_DETACHED line
                # or the line above it
                dline = line_of(text, det)
                has_comment = any(
                    "//" in raw_lines[i]
                    for i in (dline - 2, dline - 1)
                    if 0 <= i < len(raw_lines))
                if not has_comment:
                    violations.append(Violation(
                        "task-lifetime", relpath, dline,
                        "NEM_DETACHED without a justification comment "
                        "(say why the task cannot outlive what it captures)"))
                continue
            violations.append(Violation(
                "task-lifetime", relpath, line,
                f"{m.group(1)} result discarded: store the TaskHandle in an "
                "owned container (OwnedTaskSet::Adopt) or wrap in "
                "NEM_DETACHED(...) with a justification"))

    # (b) owned handles never killed (the PR-6 MmEntry::Stop bug class)
    for cls, members in model.classes.items():
        methods = model.methods_of(cls)
        if not methods:
            continue
        rep = methods[0]
        if rep.file in TASK_LIFETIME_EXEMPT:
            continue
        bodies = {f.qname: f.body for f in methods}
        all_text = "\n".join(bodies.values())
        for name, t in members.items():
            if any(h in t for h in HANDLE_CONTAINER_TYPES):
                if f"{name}.KillAll(" not in all_text.replace(" ", ""):
                    violations.append(Violation(
                        "task-lifetime", rep.file, rep.line,
                        f"{cls}::{name} (OwnedTaskSet) is never KillAll()ed: "
                        "kill owned tasks in Stop() or the destructor, "
                        "joiners before joinees"))
            elif t == "TaskHandle":
                assigned = re.search(
                    rf"\b{name}\s*=[^;]*\bSpawn\w*\s*\(", all_text)
                killed = f"{name}.Kill(" in all_text.replace(" ", "")
                if assigned and not killed:
                    violations.append(Violation(
                        "task-lifetime", rep.file, rep.line,
                        f"{cls}::{name} (TaskHandle) is assigned from Spawn "
                        "but never Kill()ed in any method"))
            elif "vector" in t and "TaskHandle" in t:
                pushed = re.search(
                    rf"\b{name}\.(?:push_back|emplace_back)\s*\("
                    rf"[^;]*\bSpawn", all_text)
                freed = re.search(
                    rf"\b{name}\b", all_text) and ".Kill(" in all_text
                if pushed and not freed:
                    violations.append(Violation(
                        "task-lifetime", rep.file, rep.line,
                        f"{cls}::{name} (vector<TaskHandle>) collects Spawn "
                        "handles but no method kills them"))


# Rule: authority-ramtab ------------------------------------------------------

RAMTAB_MUTATORS = ("SetOwner", "SetMapped", "SetUnused", "SetNailed")
RAMTAB_ALLOWED = {
    os.path.join("src", "kernel", "ramtab.h"),
    os.path.join("src", "kernel", "syscalls.cc"),
    os.path.join("src", "mm", "frames_allocator.cc"),
}


def rule_authority_ramtab(model, violations):
    for fn in model.functions.values():
        if fn.file in RAMTAB_ALLOWED:
            continue
        for call in fn.calls:
            if call.callee not in RAMTAB_MUTATORS:
                continue
            # resolved to a different class: a coincidental name, not RamTab
            if call.receiver_type and call.receiver_type != "RamTab":
                continue
            violations.append(Violation(
                "authority-ramtab", fn.file, call.line,
                f"RamTab::{call.callee} called outside the ownership "
                "authorities (frames_allocator.cc / syscalls.cc)"))


# Rule: authority-framestack --------------------------------------------------

FRAMESTACK_MEMBERSHIP = ("PushTop", "PushBottom", "PopTop", "Remove")
FRAMESTACK_ALLOWED = {
    os.path.join("src", "mm", "frame_stack.h"),
    os.path.join("src", "mm", "frames_allocator.cc"),
}


def rule_authority_framestack(model, violations):
    for fn in model.functions.values():
        if fn.file in FRAMESTACK_ALLOWED:
            continue
        for call in fn.calls:
            if call.callee not in FRAMESTACK_MEMBERSHIP:
                continue
            if call.callee == "Remove":
                # generic name: only flag when the receiver resolves to a
                # FrameStack
                if call.receiver_type != "FrameStack":
                    continue
            elif call.receiver_type and call.receiver_type != "FrameStack":
                continue
            violations.append(Violation(
                "authority-framestack", fn.file, call.line,
                f"FrameStack::{call.callee} (membership mutation) outside "
                "the frames allocator — drivers may only reorder via "
                "MoveToTop/MoveToBottom"))


# Rule: authority-stats -------------------------------------------------------

STATS_WORDS = {
    "faults", "hits", "misses", "sent", "dispatched", "handled",
    "transactions", "batches", "batched", "rejected", "dropped",
    "revocations", "killed", "issued", "wasted", "transferred",
    "pageins", "pageouts", "evictions", "txns", "maps", "counts",
}
STATS_ALLOWED = {
    (os.path.join("src", "hw", "tlb.h"), "hits_"),
    (os.path.join("src", "hw", "tlb.h"), "misses_"),
    (os.path.join("src", "hw", "mmu.h"), "faults_"),
    (os.path.join("src", "sim", "trace.h"), "dropped_"),
    (os.path.join("src", "core", "system.h"), "audit_batches_"),
}
STATS_EXEMPT_DIRS = (os.path.join("src", "obs"), os.path.join("src", "baseline"))


def rule_authority_stats(model, violations):
    for member in model.members:
        if not member.file.endswith(".h"):
            continue
        if in_dirs(member.file, STATS_EXEMPT_DIRS):
            continue
        if member.type != "uint64_t":
            continue
        segments = set(member.name.strip("_").split("_"))
        if segments & STATS_WORDS and (member.file, member.name) not in STATS_ALLOWED:
            violations.append(Violation(
                "authority-stats", member.file, member.line,
                f"raw uint64_t statistic `{member.cls}::{member.name}` — use "
                "StatCounter (src/obs/counter.h) and register it with the "
                "MetricsRegistry"))


# Rules: determinism ----------------------------------------------------------

DETERMINISM_DIRS = (os.path.join("src", "sim"), os.path.join("src", "core"))
CLOCK_RE = re.compile(
    r"\b(system_clock|steady_clock|high_resolution_clock|gettimeofday"
    r"|random_device|clock_gettime)\b"
    r"|\bstd\s*::\s*(rand|srand|time)\s*\(")
EMIT_RE = re.compile(
    r"\b(printf|fprintf|puts|fputs|WriteCsv|WriteJson|Record|Append|Emit)\s*\("
    r"|<<|\bcout\b|\bcerr\b")
UNORDERED = ("unordered_map", "unordered_set", "unordered_multimap",
             "unordered_multiset")


def rule_determinism_clock(model, violations):
    for relpath, text in model.files.items():
        if not in_dirs(relpath, DETERMINISM_DIRS):
            continue
        for m in CLOCK_RE.finditer(text):
            what = m.group(1) or m.group(2)
            violations.append(Violation(
                "determinism-clock", relpath, line_of(text, m.start()),
                f"wall-clock / nondeterministic source `{what}` in the "
                "simulator core: outputs must be a pure function of config "
                "and seeds (use sim time / seeded PRNGs)"))


def rule_determinism_unordered(model, violations):
    for fn in model.functions.values():
        if not in_dirs(fn.file, DETERMINISM_DIRS):
            continue
        for m in re.finditer(r"\bfor\s*\(([^;()]*?):([^;]*?)\)\s*\{", fn.body):
            range_expr = m.group(2).strip()
            name = re.search(r"(\w+)\s*$", range_expr)
            if not name:
                continue
            t = (fn.locals.get(name.group(1), "")
                 or fn.params.get(name.group(1), "")
                 or model.classes.get(fn.cls, {}).get(name.group(1), ""))
            if not any(u in t for u in UNORDERED):
                continue
            open_brace = m.end() - 1
            close = match_brace(fn.body, open_brace)
            loop_body = fn.body[open_brace:close + 1]
            if EMIT_RE.search(loop_body):
                text = model.files[fn.file]
                off = text.find(fn.body)
                line = fn.line + fn.body.count("\n", 0, m.start())
                violations.append(Violation(
                    "determinism-unordered", fn.file, line,
                    f"iteration over unordered container `{name.group(1)}` "
                    "feeds trace/CSV/stdout: hash-order leaks into "
                    "byte-compared output — iterate a sorted copy or an "
                    "ordered container"))


RULES = {
    "task-lifetime": rule_task_lifetime,
    "authority-ramtab": rule_authority_ramtab,
    "authority-framestack": rule_authority_framestack,
    "authority-stats": rule_authority_stats,
    "determinism-clock": rule_determinism_clock,
    "determinism-unordered": rule_determinism_unordered,
}


# --- Driver ------------------------------------------------------------------


def gather_files(root, paths):
    out = []
    if paths:
        for p in paths:
            out.append(os.path.relpath(p, root))
        return out
    src = os.path.join(root, "src")
    for dirpath, _dirs, files in os.walk(src):
        for name in sorted(files):
            if name.endswith((".h", ".cc")):
                out.append(os.path.relpath(os.path.join(dirpath, name), root))
    return sorted(out)


def build_model(root, relpaths, frontend, compile_db=None):
    model = Model()
    fe = None
    if frontend in ("auto", "cindex"):
        try:
            fe = CindexFrontend(model, compile_db_dir=compile_db or root)
        except Exception as e:
            if frontend == "cindex":
                print(f"analyze.py: cindex frontend unavailable: {e}",
                      file=sys.stderr)
                sys.exit(2)
            fe = None
    if fe is None:
        fe = TextFrontend(model)
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for rel in relpaths:
            try:
                with open(rel, encoding="utf-8") as f:
                    raw = f.read()
            except OSError as e:
                print(f"analyze.py: cannot read {rel}: {e}", file=sys.stderr)
                sys.exit(2)
            fe.add_file(rel, raw)
    finally:
        os.chdir(cwd)
    return model


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("paths", nargs="*",
                    help="files to analyze (default: the src/ tree)")
    ap.add_argument("--all", action="store_true",
                    help="run all rules over the src/ tree")
    ap.add_argument("--rule", action="append", default=[],
                    help="run only this rule (repeatable)")
    ap.add_argument("--root", default=".",
                    help="repository root (scoping for dir-based rules)")
    ap.add_argument("--frontend", choices=("auto", "cindex", "text"),
                    default="auto")
    ap.add_argument("--compile-db", default=None,
                    help="directory containing compile_commands.json "
                         "(cindex frontend)")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args()

    if args.list_rules:
        for name in RULES:
            print(name)
        return 0

    rules = args.rule or list(RULES)
    for r in rules:
        if r not in RULES:
            print(f"analyze.py: unknown rule `{r}` (see --list-rules)",
                  file=sys.stderr)
            return 2

    root = os.path.abspath(args.root)
    relpaths = gather_files(root, args.paths)
    if not relpaths:
        print("analyze.py: nothing to analyze", file=sys.stderr)
        return 2
    model = build_model(root, relpaths, args.frontend, args.compile_db)

    violations = []
    for name in rules:
        RULES[name](model, violations)
    violations.sort(key=lambda v: (v.file, v.line, v.rule))
    for v in violations:
        print(v)
    if violations:
        print(f"analyze.py: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print(f"analyze.py: clean ({len(relpaths)} files, "
          f"{len(model.functions)} functions, {len(rules)} rules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
