"""Model-checking the doxastic formula language.

Formulas talk about outcome probabilities (w(H) >= 1/2), knowledge (K),
plain and conditional belief (B, B(.|.)), and two dynamic boxes:
[H,T] phi   -- "after sampling H then T, phi holds"
[psi] phi   -- "after truthfully learning psi, phi holds"

Run with: python3 demos/02_model_checking.py
"""

from plausilearn import (
    ENTROPY,
    extension,
    init_state,
    make_alphabet,
    parse,
    print_formula,
    simplex_grid,
    valid_in_model,
)
from plausilearn.logic import axiom_suite


FORMULAS = [
    "B (w(H) = 1/2)",
    "B(w(H) >= 0.55 | H,H,H)",
    "[H] [H] [H] B (w(H) >= 0.55)",
    "[w(H) > 1/2] B (w(H) = 3/5)",
    "K (w(H) >= 1/2)",
    "~K (w(H) >= 1/2) -> K ~K (w(H) >= 1/2)",
]


def main():
    coin = make_alphabet(["H", "T"])
    model = init_state(simplex_grid(coin, 10), ENTROPY)

    for text in FORMULAS:
        ast = parse(text, coin)
        ext = extension(model, ast)
        verdict = "valid" if valid_in_model(model, ast) else "not valid"
        print(f"{print_formula(ast):<48} {verdict:>10}  "
              f"(true at {len(ext.members)}/11 worlds)")

    print()
    print("randomized validity suite (10 trials x 24 schemas):")
    report = axiom_suite(trials=10, seed=0)
    print(f"  checked {sum(report.checked.values())} instances, "
          f"counterexamples: {len(report.counterexamples)}")


if __name__ == "__main__":
    main()
