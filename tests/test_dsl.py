import json

import pytest

from proactive.automata import (
    ActionSymbol,
    ArgSource,
    EditAutomaton,
    Guard,
    OutputItem,
    Transition,
    quote,
    unquote,
    validate,
)
from proactive import dsl
from proactive.dsl import (
    _LEXEME,
    PolicyParseError,
    _column,
    line_parsers,
    parse,
    serialize,
)
from proactive.pack import bundled_pack_dir

from helpers import (
    DOA,
    DOB,
    FIXTURES,
    LINE_BREAKS,
    PARSE_DIGESTS,
    fwd,
    make_doc,
    parse_corpus,
    parse_digest,
    parse_result,
    policy_texts,
    token_mutations,
    random_policy_doc,
    reference_parse,
    reference_tokenize_line,
    reference_unquote,
)


def parse_fixture(name):
    return parse((FIXTURES / name).read_text(encoding="utf-8"))


def bundled_texts():
    return {p.name: p.read_text(encoding="utf-8")
            for p in sorted(bundled_pack_dir().glob("*.pol"))}


class TestParse:
    def test_forced_release_fixture_shape(self):
        doc = parse_fixture("audiorecord-fig3.pol")
        assert doc.automaton.states == frozenset({"0", "1", "2"})
        assert doc.automaton.initial == "0"
        synthesizing = [t for t in doc.automaton.transitions
                        if any(not i.is_forward for i in t.output)]
        assert len(synthesizing) == 1
        inserted = [i.symbol.method for i in synthesizing[0].output
                    if not i.is_forward]
        assert inserted == ["stop", "release"]
        assert not validate(doc.automaton)

    def test_metadata_fields(self):
        doc = parse_fixture("audiorecord-fig3.pol")
        assert doc.name == "audiorecord-forced-release"
        assert doc.target_interface == "AudioRecord"
        assert doc.version == 0
        assert not doc.experimental

    def test_experimental_flag(self):
        text = ('policy p\nexperimental\nstatement "s"\ntarget T\n'
                "states 0\ninitial 0\non any from 0 to 0 emit input\n")
        assert parse(text).experimental

    def test_empty_any_except_is_semantic_error(self):
        text = ('policy p\nstatement "s"\ntarget T\nstates 0\ninitial 0\n'
                "on any-except {} from 0 to 0 emit input\n")
        with pytest.raises(PolicyParseError) as exc:
            parse(text)
        semantic = [d for d in exc.value.diagnostics if d.kind == "semantic"]
        assert semantic and semantic[0].line == 6

    @pytest.mark.parametrize("atom, expected", [
        ('call "Camera.open"', "<interface>.<method>"),
        ('callback "onStop"', "callback method name"),
        ('new "Camera"', "interface name"),
    ], ids=["call", "callback", "new"])
    def test_a_string_is_no_symbol_name(self, atom, expected):
        # It was once a name that kept its quotes, which no event matches:
        # now a syntax error at the string, in a guard or an inserted item.
        header = 'policy p\nstatement "s"\ntarget Camera\nstates 0\ninitial 0\n'
        string = atom.split(" ")[1]
        for line in (f"on {atom} from 0 to 0 emit input",
                     f"on any from 0 to 0 emit insert {atom}, input"):
            with pytest.raises(PolicyParseError) as exc:
                parse(header + line + "\n")
            found = exc.value.diagnostics[0]
            assert (found.kind, found.line, found.column, found.message,
                    found.expected) == ("syntax", 6, line.index(string) + 1,
                                        f"unexpected token {string!r}", expected), line

    @pytest.mark.parametrize("line", [
        "on call {ref} from 0 to 0 emit input",
        "on any from 0 to 0 emit insert call {ref}, input",
    ], ids=["guard", "inserted"])
    def test_a_call_target_names_both_parts(self, line):
        # An empty interface or method, or a second dot, was once a symbol
        # no event matches.
        header = 'policy p\nstatement "s"\ntarget Camera\nstates 0\ninitial 0\n'
        for ref in (".open", "Camera.", "Camera..open", "Camera.open.x", "a.b.c"):
            text = line.format(ref=ref)
            with pytest.raises(PolicyParseError) as exc:
                parse(header + text + "\n")
            assert [(d.kind, d.line, d.column, d.message, d.expected)
                    for d in exc.value.diagnostics] == [
                ("syntax", 6, text.index(ref) + 1,
                 f"malformed call target {ref!r}", "<interface>.<method>")]

    @pytest.mark.parametrize("lineno, line, token, expected", [
        (4, "states 0,1", ",", "state id"),
        (4, "states 0 (", "(", "state id"),
        (4, 'states "0"', '"0"', "state id"),
        (5, "initial (", "(", "state id"),
        (5, 'initial "0"', '"0"', "state id"),
        (3, 'target "Camera"', '"Camera"', "interface name"),
        (3, "target )", ")", "interface name"),
        (6, "on any from ( to 0 emit input", "(", "state id"),
        (6, 'on any from "0" to 0 emit input', '"0"', "state id"),
        (6, "on any from 0 to , emit input", ",", "state id"),
        (6, "on any from 0 to } emit input", "}", "state id"),
        (6, "on callback ( from 0 to 0 emit input", "(", "callback method name"),
        (6, "on new , from 0 to 0 emit input", ",", "interface name"),
        (6, "on any from 0 to 0 emit insert callback ), input", ")",
         "callback method name"),
    ], ids=["states-comma", "states-paren", "states-string", "initial-paren",
            "initial-string", "target-string", "target-paren", "from-paren",
            "from-string", "to-comma", "to-brace", "callback-guard",
            "new-guard", "callback-inserted"])
    def test_a_name_or_state_id_is_a_bare_word(self, lineno, line, token,
                                               expected):
        # Each was once a name or state id: `states 0,1` declared three
        # states, `target "Camera"` kept its quotes.
        lines = ['policy p', 'statement "s"', "target Camera", "states 0",
                 "initial 0", "on any from 0 to 0 emit input"]
        lines[lineno - 1] = line
        with pytest.raises(PolicyParseError) as exc:
            parse("\n".join(lines) + "\n")
        assert [(d.kind, d.line, d.column, d.message, d.expected)
                for d in exc.value.diagnostics] == [
            ("syntax", lineno, line.index(token) + 1,
             f"unexpected token {token!r}", expected)]

    def test_emit_none_suppresses(self):
        text = ('policy p\nstatement "s"\ntarget T\nstates 0\ninitial 0\n'
                "on call T.x from 0 to 0 emit none\n"
                "on any-except {call T.x} from 0 to 0 emit input\n")
        doc = parse(text)
        suppressing = [t for t in doc.automaton.transitions if not t.output]
        assert len(suppressing) == 1

    def test_any_of_guard_and_args_none(self):
        text = ('policy p\nstatement "s"\ntarget T\nstates 0\ninitial 0\n'
                "on any-of {call T.x call T.y} from 0 to 0 "
                "emit insert call T.z args none, input\n"
                "on any-except {call T.x call T.y} from 0 to 0 emit input\n")
        doc = parse(text)
        first = doc.automaton.transitions[0]
        assert first.guard == Guard.any_of([ActionSymbol.call("T", "x"),
                                            ActionSymbol.call("T", "y")])
        assert first.output == (OutputItem(ActionSymbol.call("T", "z")),
                                OutputItem.forward())
        assert parse(serialize(doc)) == doc

    def test_missing_directives_each_reported(self):
        with pytest.raises(PolicyParseError) as exc:
            parse("states 0\n")
        messages = [d.message for d in exc.value.diagnostics]
        for directive in ("policy", "statement", "target", "initial"):
            assert any(directive in m for m in messages)

    @pytest.mark.parametrize("line, malformed, column", [
        (1, "policy", 7), (1, "policy 1bad", 8), (2, "statement s", 11),
        (3, "target", 7), (4, "states", 7), (5, "initial", 8),
    ])
    def test_a_malformed_directive_is_reported_once_on_its_line(
            self, line, malformed, column):
        lines = ['policy p', 'statement "s"', 'target T', 'states 0', 'initial 0',
                 'on any from 0 to 0 emit input']
        lines[line - 1] = malformed
        with pytest.raises(PolicyParseError) as exc:
            parse("\n".join(lines) + "\n")
        [d] = exc.value.diagnostics
        assert (d.line, d.column) == (line, column), d

    def test_duplicate_state(self):
        text = ('policy p\nstatement "s"\ntarget T\nstates 0 0\ninitial 0\n'
                "on any from 0 to 0 emit input\n")
        with pytest.raises(PolicyParseError, match="duplicate state"):
            parse(text)

    def test_undeclared_state_reference(self):
        text = ('policy p\nstatement "s"\ntarget T\nstates 0\ninitial 0\n'
                "on any from 0 to 9 emit input\n")
        with pytest.raises(PolicyParseError, match="undeclared state"):
            parse(text)

    def test_invalid_automaton_surfaces_as_semantic(self):
        text = ('policy p\nstatement "s"\ntarget T\nstates 0\ninitial 0\n'
                "on any from 0 to 0 emit input\n"
                "on call T.x from 0 to 0 emit input\n")
        with pytest.raises(PolicyParseError, match="nondeterministic") as exc:
            parse(text)
        assert [str(d).split(": ")[0] for d in exc.value.diagnostics] == ["7:1"]

    @pytest.mark.parametrize("initial, body, code, line, column", [
        ("0", "on any from 0 to 9 emit input\n", "dangling-state", 6, 1),
        # A second input is refused at its own token, before validation.
        ("0", "on any from 0 to 0 emit input\n"
              "on any from 0 to 0 emit input, input\n",
         "forwards the input twice", 7, 32),
        ("0", "on call T.x from 0 to 0 emit input\n"
              "on call T.x from 0 to 0 emit input\n", "nondeterministic", 7, 1),
        ("9", "on any from 0 to 0 emit input\n", "bad-initial", 5, 1),
        ("0", "on call T.x from 0 to 0 emit insert call T.y, input\n",
         "incomplete", 4, 1),
    ])
    def test_semantic_finding_names_its_line(self, initial, body, code, line, column):
        text = ('policy p\nstatement "s"\ntarget T\nstates 0\n'
                f"initial {initial}\n{body}")
        with pytest.raises(PolicyParseError) as exc:
            parse(text)
        found = [(d.line, d.column) for d in exc.value.diagnostics
                 if d.kind == "semantic" and code in d.message]
        assert found == [(line, column)]

    @pytest.mark.parametrize("repeat, first", [
        ("policy q", 1), ("version 1", 2), ("experimental", 3),
        ('statement "t"', 4), ("target U", 5), ("states 1", 6), ("initial 0", 7),
    ])
    def test_duplicate_directive_is_rejected(self, repeat, first):
        text = ('policy p\nversion 0\nexperimental\nstatement "s"\n'
                "target T\nstates 0\ninitial 0\n"
                f"on any from 0 to 0 emit input\n{repeat}\n")
        directive = repeat.split()[0]
        with pytest.raises(PolicyParseError) as exc:
            parse(text)
        [d] = exc.value.diagnostics
        assert (d.kind, d.line, d.column) == ("semantic", 9, 1)
        assert f"duplicate {directive!r} directive (first on line {first})" \
            in d.message

    def test_literals(self):
        text = ('policy p\nstatement "s"\ntarget T\nstates 0\ninitial 0\n'
                'on call T.x from 0 to 0 emit insert call T.y args (1 -2 "a b"), input\n'
                "on any-except {call T.x} from 0 to 0 emit input\n")
        doc = parse(text)
        items = [i for t in doc.automaton.transitions for i in t.output
                 if not i.is_forward]
        assert items[0].arg_source is ArgSource.LITERALS
        assert items[0].literals == (1, -2, "a b")

    @pytest.mark.parametrize("literal", ["1_000", "+5", "\u0663", "-\u0663",
                                         "\u00b2", "1e3", "0x1", "--5", "-"])
    def test_only_ascii_integer_literals(self, literal):
        text = ('policy p\nstatement "s"\ntarget T\nstates 0\ninitial 0\n'
                f"on call T.x from 0 to 0 emit insert call T.y args (1 {literal}), input\n"
                "on any-except {call T.x} from 0 to 0 emit input\n")
        with pytest.raises(PolicyParseError) as exc:
            parse(text)
        [d] = exc.value.diagnostics
        assert (d.kind, d.line, d.column) == ("syntax", 6, 54)
        assert d.message == f"bad literal {literal!r}"

    @pytest.mark.parametrize("version", ["1_0", "+1", "-0", "-1", "\u0663",
                                         "\u00b2", "1e3"])
    def test_only_ascii_digit_versions(self, version):
        text = (f'policy p\nversion {version}\nstatement "s"\ntarget T\n'
                "states 0\ninitial 0\non any from 0 to 0 emit input\n")
        with pytest.raises(PolicyParseError) as exc:
            parse(text)
        [d] = exc.value.diagnostics
        assert (d.kind, d.line, d.column) == ("semantic", 2, 9)
        assert d.message == f"invalid version {version!r}"

    def test_ascii_integers_keep_their_value(self):
        text = ('policy p\nversion 007\nstatement "s"\ntarget T\nstates 0\n'
                "initial 0\n"
                "on any from 0 to 0 emit input, insert call T.y args (-05 0 12)\n")
        doc = parse(text)
        assert doc.version == 7
        assert doc.automaton.transitions[0].output[1].literals == (-5, 0, 12)

    def test_comments_end_the_line_outside_strings(self):
        text = ('# leading comment\npolicy p # trailing\n'
                'statement "a # b" #"c"\ntarget T#U\nstates 0\ninitial 0\n'
                "on any from 0 to 0 emit input#none\n")
        doc = parse(text)
        assert (doc.name, doc.statement, doc.target_interface) \
            == ("p", "a # b", "T")

    def test_string_escapes(self):
        text = ('policy p\nstatement "q\\"\\\\n\\n\\x"\ntarget T\nstates 0\n'
                "initial 0\non any from 0 to 0 emit input\n")
        assert parse(text).statement == 'q"\\n\nx'

    def test_non_decimal_digit_state_ids(self):
        text = ('policy p\nstatement "s"\ntarget T\nstates 3 \u00b2 03 0\n'
                "initial 0\non any from 0 to 0 emit input\n")
        canonical = serialize(parse(text))
        assert "states 0 03 3 \u00b2\n" in canonical
        assert serialize(parse(canonical)) == canonical

    def test_comment_hash_inside_statement_is_kept(self):
        text = ('policy p\nstatement "a # b"\ntarget T\nstates 0\ninitial 0\n'
                "on any from 0 to 0 emit input\n")
        assert parse(text).statement == "a # b"

    @pytest.mark.parametrize("junk", [
        "",
        "policy\n",
        "???\n",
        'policy p\nstatement "unterminated\n',
        "on call from 0 to\n",
        'policy p\nstatement "s"\ntarget T\nstates 0\ninitial 0\n'
        "on any from 0 to 0 emit input extra\n",
    ])
    def test_diagnostic_totality(self, junk):
        with pytest.raises(PolicyParseError) as exc:
            parse(junk)
        assert exc.value.diagnostics
        for d in exc.value.diagnostics:
            assert d.line >= 1 and d.column >= 1


class TestTransitionLine:
    def test_is_the_line_of_its_on_directive(self):
        for text in policy_texts():
            on_lines = [n for n, raw in enumerate(text.splitlines(), start=1)
                        if raw.split()[:1] == ["on"]]
            assert [t.line for t in parse(text).automaton.transitions] == on_lines

    def test_is_ignored_by_equality_and_serialize(self):
        for text in policy_texts():
            doc, shifted = parse(text), parse("\n" + text)
            assert [t.line for t in shifted.automaton.transitions] \
                == [t.line + 1 for t in doc.automaton.transitions]
            assert shifted == doc
            assert hash(shifted.automaton) == hash(doc.automaton)
            assert serialize(shifted) == serialize(doc)


class TestSerialize:
    def test_bundled_round_trip_to_canonical_form(self):
        for name, text in bundled_texts().items():
            doc = parse(text)
            canonical = serialize(doc)
            assert parse(canonical) == doc, name
            assert serialize(parse(canonical)) == canonical, name

    def test_deterministic_across_calls(self):
        doc = parse_fixture("audiorecord-fig3.pol")
        assert serialize(doc) == serialize(doc)

    def test_single_insert_clause_lists_stop_then_release(self):
        text = serialize(parse_fixture("audiorecord-fig3.pol"))
        insert_lines = [l for l in text.splitlines() if "insert" in l]
        assert len(insert_lines) == 1
        line = insert_lines[0]
        assert line.index("AudioRecord.stop") < line.index("AudioRecord.release")

    def test_any_except_rendered_sorted(self):
        automaton = EditAutomaton(
            frozenset({"0"}), "0",
            (Transition("0", Guard.any_except([DOB, DOA]), (fwd(),), "0"),))
        text = serialize(make_doc("p", automaton))
        assert "any-except {call Api.doA call Api.doB}" in text

    def test_canonical_form_independent_of_transition_order(self):
        doc = parse_fixture("audiorecord-fig3.pol")
        reordered = make_doc(doc.name, EditAutomaton(
            doc.automaton.states, doc.automaton.initial,
            tuple(reversed(doc.automaton.transitions))))
        original = make_doc(doc.name, doc.automaton)
        assert serialize(reordered) == serialize(original)

    def test_lf_and_single_spaces(self):
        text = serialize(parse_fixture("audiorecord-fig3.pol"))
        assert "\r" not in text
        assert text.endswith("\n")
        assert "  " not in text

    def test_round_trip_on_generated_docs(self):
        for seed in range(100):
            doc = random_policy_doc(seed)
            assert parse(serialize(doc)) == doc, seed

    def test_literal_newline_round_trip(self):
        text = ('policy p\nstatement "s"\ntarget T\nstates 0\ninitial 0\n'
                'on call T.x from 0 to 0 emit insert call T.y '
                'args ("a\\nb" "q\\"\\\\"), input\n'
                "on any-except {call T.x} from 0 to 0 emit input\n")
        doc = parse(text)
        [item] = [i for t in doc.automaton.transitions for i in t.output
                  if not i.is_forward]
        assert item.literals == ("a\nb", 'q"\\')
        canonical = serialize(doc)
        assert parse(canonical) == doc
        assert serialize(parse(canonical)) == canonical

    def test_statement_escaping(self):
        import dataclasses
        base = make_doc("p", EditAutomaton(
            frozenset({"0"}), "0",
            (Transition("0", Guard.any(), (fwd(),), "0"),)))
        for statement in ['say "hi"', "a\\nb", "line\nbreak", "tricky \\ # end"]:
            doc = dataclasses.replace(base, statement=statement)
            assert parse(serialize(doc)).statement == statement


    @pytest.mark.parametrize("char", LINE_BREAKS,
                             ids=[f"U+{ord(c):04X}" for c in LINE_BREAKS])
    def test_every_line_break_round_trips(self, char):
        import dataclasses
        base = make_doc("p", EditAutomaton(
            frozenset({"0"}), "0",
            (Transition("0", Guard.exactly(DOA),
                        (OutputItem(DOB, ArgSource.LITERALS, (f"x{char}y",)),
                         fwd()),
                        "0"),
             Transition("0", Guard.exactly(DOB), (fwd(),), "0"))))
        doc = dataclasses.replace(base, statement=f"a{char}b")
        canonical = serialize(doc)
        assert len(canonical.splitlines()) == len(serialize(base).splitlines())
        assert parse(canonical) == doc
        assert parse(canonical).statement == f"a{char}b"
        assert serialize(parse(canonical)) == canonical

    def test_only_written_escapes_are_restored(self):
        assert quote("\r\u2028") == '"\\u000d\\u2028"'
        # A backslash before anything quote does not write stands for the
        # character after it, as before the line-break escapes.
        for text, expected in [('"\\r"', "r"), ('"\\u0041"', "u0041"),
                               ('"\\u000D"', "u000D"), ('"\\u00"', "u00"),
                               ('"\\\\u000d"', "\\u000d")]:
            assert unquote(text) == expected, text


class TestLexerAgreesWithReference:
    """The one-pass lexer gives the reference lexer's tokens, positions,
    lexical diagnostics and unquoted strings."""

    def test_tokens_diagnostics_and_strings(self):
        # Split on LF only, so form feeds and carriage returns, which
        # parse treats as line breaks, also reach the lexer inside a line.
        lexical = strings = 0
        for text in parse_corpus():
            raws = text.split("\n")
            diags = []
            tokens_at = {lp.lineno: lp.tokens
                         for lp in line_parsers(raws, diags)}
            expected_diags = []
            for lineno, raw in enumerate(raws, start=1):
                tokens = tokens_at.get(lineno, [])
                expected_tokens, line_diags = \
                    reference_tokenize_line(raw, lineno)
                assert [(t, lineno, _column(raw, i))
                        for i, t in enumerate(tokens)] == expected_tokens, raw
                expected_diags += line_diags
                for t in tokens:
                    if t.startswith('"'):
                        strings += 1
                        assert unquote(t) == reference_unquote(t)
            assert diags == expected_diags, text
            lexical += len(diags)
        assert lexical > 100 and strings > 1000

    def test_parse_reports_the_reference_lexical_diagnostics(self):
        for text in parse_corpus():
            expected = [d for lineno, raw in enumerate(text.splitlines(), 1)
                        for d in reference_tokenize_line(raw, lineno)[1]]
            try:
                parse(text)
                found = []
            except PolicyParseError as exc:
                found = [d for d in exc.diagnostics if d.kind == "lexical"]
            assert found == expected, text


class TestParseAgreesWithReference:
    """The index-reading line readers give the cursor-reading reference's
    canonical form or diagnostics (kind, line, column, message, expected)."""

    def test_corpus(self):
        for text in parse_corpus():
            assert parse_result(text) == parse_result(text, reference_parse), text

    def test_token_level_mutations_of_every_policy_file(self):
        texts = [mutant for seed, text in enumerate(policy_texts())
                 for mutant in token_mutations(text, 600, seed)]
        assert len(texts) >= 5000
        kinds = set()
        for text in texts:
            result = parse_result(text)
            assert result == parse_result(text, reference_parse), text
            kinds.add(result.split(",")[0] if result.startswith("(") else "parsed")
        # Some mutants stay valid, and both syntax and semantic errors show.
        assert {"parsed", "('syntax'", "('semantic'"} <= kinds


class TestParseBuildsNoCursor:
    """A valid `.pol` line is read by index: no cursor, no per-token call."""

    def test_policy_files_parse_without_a_cursor(self, monkeypatch):
        calls = []
        for name in ("__init__", "peek", "next", "expect"):
            method = getattr(dsl._LineParser, name, None)
            if method is not None:
                def counting(*args, _name=name, _method=method, **kwargs):
                    calls.append(_name)
                    return _method(*args, **kwargs)
                monkeypatch.setattr(dsl._LineParser, name, counting)
        for text in policy_texts():
            parse(text)
        assert calls == []


class TestQuoteFreeLinesLexLikeTheRegex:
    """A line with no '"' is lexed with str methods; on every code point
    that is not a line break they give the tokens _LEXEME gives, so
    str.split() whitespace and the regex's \\s agree on this Python."""

    def test_every_code_point_between_tokens_beside_punctuation_and_hash(self):
        points = [chr(i) for i in range(0x110000)
                  if chr(i) not in LINE_BREAKS + '"']
        assert len(points) == 0x110000 - len(LINE_BREAKS) - 1
        plain = [c for c in points if c != "#"]
        # Each code point glued to a neighbour, so every punctuation mark
        # has one on each side and the token count stays near the points'.
        pairs = [a + b for a, b in zip(plain[::2], plain[1::2] + ["x"])]
        lines = ["x".join(plain) + "x"]  # between two tokens
        lines += [p + p.join(pairs) + p for p in "{}(),"]
        # Before the first '#', and after one and before the next in the comment.
        lines += ["x".join(points[i:i + 4096]).replace("#", "x") + "#"
                  + "#".join(points[i:i + 4096]) for i in range(0, len(points), 4096)]
        # Directly around a '#': each separator, and a glued point per chunk above.
        lines += [f"x{c}#{c}x" for c in points if c.isspace() or c in "{}(),"]
        diags = []
        tokens = [lp.tokens for lp in line_parsers(lines, diags)]
        assert diags == [] and len(tokens) == len(lines)
        for raw, got in zip(lines, tokens):
            expected = _LEXEME.findall(raw)
            if expected and expected[-1][0] == "#":
                expected.pop()
            assert got == expected, raw[:80]


class TestGoldenParseResults:
    """parse gives, on every corpus text, the result whose digest
    tests/record_parse_digests.py recorded."""

    def test_every_corpus_text_matches_its_recorded_digest(self):
        recorded = json.loads(PARSE_DIGESTS.read_text(encoding="utf-8"))
        texts = parse_corpus()
        assert len(texts) == len(recorded)
        for index, (text, digest) in enumerate(zip(texts, recorded)):
            assert parse_digest(text) == digest, \
                f"text {index}: {text!r} now gives\n{parse_result(text)}"

    @pytest.mark.parametrize("line, ends", [
        ('statement  "abc  ', (12, 10, "quoted statement text")),
        ('on call T.x from 0 to 0 emit insert call T.y args (  "a b',
         (54, 52, "literal or ')'")),
    ], ids=["statement", "literals"])
    def test_end_of_line_after_an_unterminated_string(self, line, ends):
        # The line ends where its last token does, before the lone quote.
        text = f"policy p\n{line}\n"
        with pytest.raises(PolicyParseError) as exc:
            parse(text)
        quote_column, end_column, expected = ends
        assert [(d.kind, d.line, d.column, d.message, d.expected)
                for d in exc.value.diagnostics][:2] == [
            ("lexical", 2, quote_column,
             "unterminated string or bad character '\"'", None),
            ("syntax", 2, end_column, "unexpected end of line", expected)]
