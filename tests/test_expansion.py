"""The fixed-point expansion on its own: plain ints in and out, no mpmath.

The expansion's agreement with exact rationals, its join tree and its
split over two processes are checked through ``classpoly`` in
test_classpoly.py; here the module is taken alone.
"""

import json
import os
import subprocess
import sys

import classinv.expansion as expansion


def test_importing_the_expansion_loads_no_numerics():
    # a fresh interpreter: no module imported by another test hides one
    # that the expansion would load
    source = os.path.dirname(os.path.dirname(expansion.__file__))
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    code = "\n".join([
        "import json, sys",
        "import classinv.expansion",
        "print(json.dumps([m for m in ('mpmath', 'classinv.numeval', 'classinv.classpoly',"
        " 'classinv.helper') if m in sys.modules]))",
    ])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


def test_a_hand_made_product_rounds_exactly():
    # (t - 1/3)(t^2 - t + 1/2) = t^3 - 4/3 t^2 + 5/6 t - 1/6 at 64 bits:
    # the real value 1/3, floored to u = floor(2^64 / 3), and the pair
    # 1/2 +- i/2, whose quadratic is t^2 - t + 1/2
    bits = 64
    one = 1 << bits
    u = one // 3
    values = [(1 << 63, 1 << 63), (u, 0)]
    paired = [True, False]
    roots = []

    def product(groups, bits):
        roots.append(groups)
        return expansion._product(groups, bits)

    rounded, residual = expansion._expand_and_round(values, paired, bits, product)
    # one group, smallest first: t - u (63 bits), then t^2 - 2^64 t + 2^63
    assert roots == [[[(-u, None), (-one, 1 << 63)]]]
    # the sweep by hand: t - u, then each coefficient of the quadratic step
    # floored once; u is odd, so -u/2 floors to -(u + 1)/2
    coefficients = [-(u + 1) // 2, u + (1 << 63), -u - one, one]
    assert expansion._product(roots[0], bits) == coefficients
    assert rounded == (0, 1, -1, 1)
    # the farthest coefficient is -4/3 t^2, u units from -1
    assert residual == u == 6148914691236517205
    # a real value's imaginary part is the residual when it is larger
    rounded, residual = expansion._expand_and_round(
        [(1 << 63, 1 << 63), (u, u + 1)], paired, bits, expansion._product)
    assert rounded == (0, 1, -1, 1) and residual == u + 1
