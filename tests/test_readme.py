"""README claims are executed: the library tour runs as printed."""

import re
from pathlib import Path

from splitbridge import engine, runner

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_prints_one_line_per_task(capsys):
    text = README.read_text()
    tour = text[text.index("## Library tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(code, "README.md (Library tour)", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    for step, line in enumerate(lines, start=1):
        fields = line.split()
        assert int(fields[0]) == step
        assert all(0.0 <= float(acc) <= 1.0 for acc in fields[1:])


def test_input_table_matches_the_code():
    # every key of CONFIG_KINDS and BENCH_KINDS has a README row stating its kind
    # and bound in the words of check's message (the row may go on after ", and"
    # with a check the code writes out), and the README's config and benchmark
    # rows name no key but those and the ones the code checks by hand. A
    # benchmark row names the sources that read its keys and their default, as
    # BENCH_SOURCES does ("none": the source needs the key); other rows leave
    # both cells empty
    text = README.read_text()
    table = text[text.index("| key | section | sources | default | must be |"):]
    rules, sections, sources, defaults = {}, {}, {}, {}
    for row in table.split("\n\n")[0].splitlines()[2:]:
        keys, section, used_by, default, must = (cell.strip() for cell in row.strip("|").split("|"))
        for key in re.findall(r"`([\w-]+)`", keys):
            assert key not in rules, f"{key} has two rows"
            rules[key], sections[key], sources[key], defaults[key] = must, section, used_by, default
    code = {**engine.CONFIG_KINDS, **runner.BENCH_KINDS}
    for key, (kind, low) in code.items():
        phrase = kind + f" >= {low}" * (low is not None)
        assert rules.get(key, "").split(", and ")[0] == phrase, key
    written_out = {"config": {"hidden"}, "benchmark": {"source"}}
    for section, kinds in (("config", engine.CONFIG_KINDS), ("benchmark", runner.BENCH_KINDS)):
        in_readme = {key for key, s in sections.items() if s == section}
        assert in_readme == kinds.keys() - {"seed"} | written_out[section], section

    read_by = {"source": list(runner.BENCH_SOURCES), **{
        key: [s for s, keys in runner.BENCH_SOURCES.items() if key in keys]
        for key in runner.BENCH_KINDS}}
    for key in sections:
        if key not in read_by:  # not a benchmark key
            assert sources[key] == defaults[key] == "", key
            continue
        assert sources[key] == ", ".join(read_by[key]), key
        values = ({runner.DEFAULT_BENCHMARK["source"]} if key == "source" else
                  {runner.BENCH_SOURCES[s][key] for s in read_by[key]})
        assert len(values) == 1, f"{key}'s default differs between sources"
        assert defaults[key] == ("none" if values == {None} else str(*values)), key
