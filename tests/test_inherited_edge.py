"""A caller is rescanned when a callee it reaches only through an inlined
copy frees registers.

When ``f`` inlines ``g``, the call to ``h`` copied out of ``g`` makes
``f`` a caller of ``h``: ``inline_at`` adds ``g``'s calls to ``f``'s.
The module below needs that edge.  In round 1, ``f`` inlines ``g``.  In
round 2, ``f`` skips its copied call to ``h`` for register pressure,
then ``h`` expands ``k`` and no longer uses ``r10``.  In round 3, ``f``
must be scanned again, and only the inherited edge from ``f`` to ``h``
marks it: without it, ``f`` never expands ``h``.
"""

from __future__ import annotations

from instrumenta.ir import parse_module
from instrumenta.optimizer import O3, inline_pass
from test_inline_oracle import _agree

INHERITED_EDGE = """\
module "m"
func @f file="a.c" lines=1:4
{
^e:
  call @g
  ret
}
func @g file="a.c" lines=5:8
{
^e:
  call @h, r12
  ret
}
func @h file="a.c" lines=9:17
{
^e:
  add r0, r1, r2
  add r3, r4, r5
  add r6, r7, r8
  add r9, r11, r12
  add r13, r14, r15
  call @k, r10
  ret r0
}
func @k file="a.c" lines=18:22
{
^e:
  call @leaf, r9
  work 1
  ret
}
func @leaf file="a.c" lines=23:26
{
^e:
  work 1
  ret
}
"""


def test_inherited_edge_rescans_the_caller(monkeypatch):
    m = parse_module(INHERITED_EDGE)
    _agree(monkeypatch, m)
    _, report = inline_pass(m, O3)
    assert ("f", "h") in [(s.caller, s.callee) for s in report.inlined_sites]
