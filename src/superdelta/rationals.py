"""The one rational type, outside the engine, which computes in integers.

`RAT` stays for the environment record of perfbench/run.py, the tests and
demo 01.
"""

from fractions import Fraction as RAT
