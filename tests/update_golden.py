"""Regenerate the golden stdout files under tests/golden/.

Run after an intentional output-format change, then review the diff:

    PYTHONPATH=src python tests/update_golden.py

CI runs it too and fails when it changes any golden file.
"""

from __future__ import annotations

from cli_cases import CASES, run_case


def main() -> None:
    for case in CASES:
        code, out, err = run_case(case)
        if code != case.code or err != case.stderr:
            raise SystemExit(
                f"{case.name}: exit/stderr drifted from the case table "
                f"(got code {code}, stderr {err!r}); update cli_cases.py first"
            )
        case.stdout_file.write_text(out, encoding="utf-8")
        print(f"wrote {case.stdout_file.name} ({len(out)} bytes)")


if __name__ == "__main__":
    main()
