"""Golden lock on the command line: exact stdout, exit codes and error text.

``CASES`` is the one table of CLI outputs: a new pin is appended to it,
so every case keeps its id, and ``tests/test_cli.py`` keeps only the
checks a case cannot make.  Each case runs twice, through ``main`` in
this process (``test_golden``) and as ``python -m effectdiagrams.cli`` in
a fresh interpreter (``test_golden_fresh``), which also sees faults at
import time, in the entry point and in ``sys.exit``.  ``main`` returns
every exit code, a bad argument's 2 included, so a usage error is a case
like any other.  Both runs compare the exit code and the whole of stdout
with literals, and stderr wherever a case gives it (every case that
exits with 2, 3, 4 or 5, every case from 82 on, and some others that
exit with 0 or 1).  ``{dir}`` in an argument or in stderr stands for a
temporary directory holding the files in ``FILES``, written as UTF-8
unless given as bytes.
"""

import pytest

from effectdiagrams.cli import main

from fresh import run_fresh

FILES = {
    'outer.json':
        ('{"effect":{"arity":2,"body":{"kind":"dist","entries":[[1,"1/'
         '2"],[2,"1/2"]]}},"row":["v","w"]}\n'),
    'left.json':
        ('{"effect":{"arity":2,"body":{"kind":"dist","entries":[[1,"3/'
         '4"],[2,"1/4"]]}},"row":["a","b"]}\n'),
    'right.json':
        ('{"effect":{"arity":1,"body":{"kind":"dist","entries":[[1,"1"'
         ']]}},"row":["c"]}\n'),
    'no-arity.json':
        '{"effect":{"body":{"kind":"dist","entries":[[1,"1"]]}},"row":["c"]}\n',
    'no-entries.json':
        '{"effect":{"arity":1,"body":{"kind":"dist"}},"row":["c"]}\n',
    'no-table.json':
        ('{"effect":{"arity":1,"body":{"kind":"state","locations":["l0"]}'
         '},"row":["c"]}\n'),
    'no-locations.json':
        ('{"effect":{"arity":1,"body":{"kind":"state","table":[["0",[1,"'
         '0"]],["1",[1,"1"]]]}},"row":["c"]}\n'),
    'row-not-list.json':
        ('{"effect":{"arity":1,"body":{"kind":"dist","entries":[[1,"1"'
         ']]}},"row":"c"}\n'),
    'bool-row.json':
        ('{"effect":{"arity":1,"body":{"kind":"maybe","value":1}},"row":'
         '[true]}\n'),
    'oops.defs': 'oops\n',
    'string-locations.json':
        ('{"effect":{"arity":1,"body":{"kind":"state","locations":"l0","t'
         'able":[["0",[1,"0"]],["1",[1,"1"]]]}},"row":["c"]}\n'),
}
# text that is not JSON, and JSON text that is not UTF-8
FILES['not-json.json'] = 'nope\n'
FILES['latin-1.json'] = '{"row": ["café"]}\n'.encode('latin-1')
# JSON nested past the recursion limit
FILES['deep.json'] = '[' * 10 ** 5 + ']' * 10 ** 5 + '\n'
# one-slot dist presentations whose probability breaks the "n"/"p/q" format
FILES.update({
    name: ('{"effect":{"arity":1,"body":{"kind":"dist","entries":'
           f'[[1,{prob}]]}}}},"row":["c"]}}\n')
    for name, prob in (('float-prob.json', '0.1'),
                       ('number-prob.json', '1'),
                       ('padded-prob.json', '" 2/4 "'),
                       ('exponent-prob.json', '"1e-1"'),
                       ('zero-denominator.json', '"1/0"'))})
FILES.update({
    # a second outer effect, a float probability beside a "p/q" one, and
    # an effect body returning an index above its arity
    'thirds.json':
        ('{"effect":{"arity":2,"body":{"kind":"dist","entries":[[1,"1/'
         '3"],[2,"2/3"]]}},"row":["v","w"]}\n'),
    'float-entry.json':
        ('{"effect":{"arity":2,"body":{"kind":"dist","entries":[[1,0.75'
         '],[2,"1/4"]]}},"row":["a","b"]}\n'),
    'wide.json':
        ('{"effect":{"arity":1,"body":{"kind":"dist","entries":[[2,"1/'
         '2"]]}},"row":["v"]}\n'),
    # machine JSON that lists one element, or one store, twice
    'dup-entries.json':
        ('{"effect":{"arity":1,"body":{"kind":"dist","entries":[[1,"1/'
         '2"],[1,"1/2"]]}},"row":["w"]}\n'),
    'dup-store.json':
        ('{"effect":{"arity":1,"body":{"kind":"state","locations":["l0'
         '"],"table":[["0",[1,"0"]],["0",[1,"1"]],["1",[1,"1"]]]}},"ro'
         'w":["c"]}\n'),
    'one-state.json':
        ('{"effect":{"arity":1,"body":{"kind":"state","locations":["l0'
         '"],"table":[["0",[1,"0"]],["1",[1,"1"]]]}},"row":["c"]}\n'),
    # a program too long for one argv string, which Linux caps at 128 KiB
    'deep-program.txt': '(' * 10 ** 5 + 'v' + ')' * 10 ** 5,
})
FILES.update({
    # a program, and two prelude files
    'prog.lam': 'choice(v, w)\n',
    'twice.lam': 'twice = \\f. \\x. f (f x)\n',
    'foo.lam': 'foo = id\n',
    # one-member dist and maybe presentations, a fair choice between two
    # elements, and an arity that is a JSON boolean
    'trivial-x.json':
        '{"effect":{"arity":1,"body":{"kind":"dist","entries":[[1,"1"]]}},'
        '"row":["x"]}\n',
    'maybe-x.json':
        ('{"effect":{"arity":1,"body":{"kind":"maybe","value":1}},"row":'
         '["x"]}\n'),
    'halves-xy.json':
        ('{"effect":{"arity":2,"body":{"kind":"dist","entries":[[1,"1/'
         '2"],[2,"1/2"]]}},"row":["x","y"]}\n'),
    'bool-arity.json':
        ('{"effect":{"arity":true,"body":{"kind":"maybe","value":1}},"row":'
         '["a"]}\n'),
})

# line ends as text mode reads them (CRLF and lone CR), a byte order mark,
# an empty file and a latin-1 byte past a CRLF: each file read as bytes
# gives the text, or the error, that reading it in text mode gives
_OUTER_LINES = [b'{', b' "effect": {"arity": 2,',
                b'  "body": {"kind": "dist", "entries": [[1, "1/2"], '
                b'[2, "1/2"]]}},', b' "row": ["v", "w"]', b'}', b'']
_BAD_LINES = [b'{', b' "effect": {"arity": 1,',
              b'  "body": {"kind": "dist" "entries": [[1, "1"]]}},',
              b' "row": ["c"]', b'}', b'']
FILES.update({
    'crlf.json': b'\r\n'.join(_OUTER_LINES),
    'lone-cr.json': b'\r'.join(_OUTER_LINES),
    'crlf-bad.json': b'\r\n'.join(_BAD_LINES),
    'lone-cr-bad.json': b'\r'.join(_BAD_LINES),
    'cr-in-string.json':
        (b'{"effect":{"arity":1,"body":{"kind":"dist","entries":[[1,"1"]]}'
         b'},"row":["a\rb"]}\n'),
    'bom.json': b'\xef\xbb\xbf' + FILES['right.json'].encode('utf-8'),
    'empty.json': b'',
    'latin-1-crlf.json': b'{\r\n "row":\r\n ["caf\xe9"]}\r\n',
    # stores that are not bit strings, and a location named by ""
    'list-store.json':
        ('{"effect":{"arity":1,"body":{"kind":"state","locations":["l0'
         '"],"table":[[["0"],[1,"0"]],["1",[1,"1"]]]}},"row":["c"]}\n'),
    'int-store.json':
        ('{"effect":{"arity":1,"body":{"kind":"state","locations":["l0'
         '"],"table":[[0,[1,"0"]],["1",[1,"1"]]]}},"row":["c"]}\n'),
    'empty-location.json':
        ('{"effect":{"arity":1,"body":{"kind":"state","locations":[""]'
         ',"table":[["0",[1,"0"]],["1",[1,"1"]]]}},"row":["c"]}\n'),
})


def _bad_probability(shown):
    return (f"kind error: bad serialized dist value: probability {shown} "
            'is not a string "n" or "p/q" of digits with q > 0\n')


TOO_DEEP = ('error: recursion limit reached: the program is nested too '
            'deeply, or its evaluation is at this fuel\n')

CASES = [
    (['eval', '-m', 'maybe', '-f', '5', '(\\x. x) v'],
     0, 'v\n',
     None),
    (['eval', '-m', 'maybe', '-f', '20', '--format', 'machine', 'OMEGA'],
     0, '{"kind":"maybe","bottom":true}\n',
     None),
    (['eval', '-m', 'exc', '--exceptions', 'err,crash',
      '(\\x. raise[crash]()) v'],
     0, 'raise crash\n',
     None),
    (['eval', '-m', 'exc', '--exceptions', 'err,crash', '--format',
      'machine', 'id v'],
     0, '{"kind":"exc","exceptions":["err","crash"],"value":"v"}\n',
     None),
    (['eval', '-m', 'set', 'union(v, union(w, v)) ; union(a, b)'],
     0, '{a, b}\n',
     None),
    (['eval', '-m', 'set', '--format', 'machine', 'union(v, union(w, v))'],
     0, '{"kind":"set","elements":["v","w"]}\n',
     None),
    (['eval', '-m', 'dist', '-f', '10', 'choice(v, choice(v, w))'],
     0, '{v: 3/4, w: 1/4}\n',
     None),
    (['eval', '-m', 'dist', '--format', 'machine',
      'choice(a, b) ; choice(v, choice(v, w))'],
     0, '{"kind":"dist","entries":[["v","3/4"],["w","1/4"]]}\n',
     None),
    (['eval', '-m', 'state', 'read[l0](write[l1,1](v), w)'],
     0, '{00 ↦ (v, 01), 01 ↦ (v, 01), 10 ↦ (w, 10), 11 ↦ (w, 11)}\n',
     None),
    (['eval', '-m', 'state', '--locations', 'l0,l1,l2', '--format',
      'machine', 'write[l2,1](read[l2](v, read[l0](w, v)))'],
     0, ('{"kind":"state","locations":["l0","l1","l2"],"table":[["000"'
      ',["w","001"]],["001",["w","001"]],["010",["w","011"]],["011"'
      ',["w","011"]],["100",["v","101"]],["101",["v","101"]],["110"'
      ',["v","111"]],["111",["v","111"]]]}\n'),
     None),
    (['eval', '-m', 'output', '-f', '3', 'Z (\\f. \\x. print[a](f x)) v'],
     0, '("a", ↑)\n',
     None),
    (['eval', '-m', 'output', '--alphabet', 'abc', '--format', 'machine',
      'print[c](print[b](v))'],
     0, ('{"kind":"output","alphabet":["a","b","c"],"out":"cb","value"'
      ':"v"}\n'),
     None),
    (['diagram', '-m', 'maybe', '-f', '20', 'OMEGA'],
     0, '[⊥ ‖ ]\n',
     None),
    (['diagram', '-m', 'maybe', '--format', 'machine', '(\\x. x) v'],
     0, ('{"effect":{"arity":1,"body":{"kind":"maybe","value":1}},"row'
      '":["v"]}\n'),
     None),
    (['diagram', '-m', 'exc', '--exceptions', 'err,crash', 'raise[err]()'],
     0, '[raise err ‖ ]\n',
     None),
    (['diagram', '-m', 'exc', '--exceptions', 'err,crash', '--format',
      'machine', '(\\x. x) w'],
     0, ('{"effect":{"arity":1,"body":{"kind":"exc","exceptions":["err'
      '","crash"],"value":1}},"row":["w"]}\n'),
     None),
    (['diagram', '-m', 'set', 'union(w, union(v, w))'],
     0, '[{1,2} ‖ 1→v ; 2→w]\n',
     None),
    (['diagram', '-m', 'set', '--format', 'machine',
      'union(v, w) ; union(a, b)'],
     0, ('{"effect":{"arity":2,"body":{"kind":"set","elements":[1,2]}}'
      ',"row":["a","b"]}\n'),
     None),
    (['diagram', '-m', 'dist', 'choice(a, b) ; choice(v, choice(v, w))'],
     0, '[3/4,1/4 ‖ 1→v ; 2→w]\n',
     None),
    (['diagram', '-m', 'dist', '--format', 'machine',
      'choice(v, choice(v, w))'],
     0, ('{"effect":{"arity":2,"body":{"kind":"dist","entries":[[1,"3/'
      '4"],[2,"1/4"]]}},"row":["v","w"]}\n'),
     None),
    (['diagram', '-m', 'state', 'read[l0](write[l1,1](v), w)'],
     0, '[00↦(1,01) , 01↦(1,01) , 10↦(2,10) , 11↦(2,11) ‖ 1→v ; 2→w]\n',
     None),
    (['diagram', '-m', 'state', '--format', 'machine',
      'write[l0,1](read[l0](v, w))'],
     0, ('{"effect":{"arity":1,"body":{"kind":"state","locations":["l0'
      '","l1"],"table":[["00",[1,"10"]],["01",[1,"11"]],["10",[1,"1'
      '0"]],["11",[1,"11"]]]}},"row":["w"]}\n'),
     None),
    (['diagram', '-m', 'output', '-f', '3', 'Z (\\f. \\x. print[b](f x)) v'],
     0, '[(b,↑) ‖ ]\n',
     None),
    (['diagram', '-m', 'output', '--format', 'machine',
      'print[a](print[b](v))'],
     0, ('{"effect":{"arity":1,"body":{"kind":"output","alphabet":["a"'
      ',"b"],"out":"ab","value":1}},"row":["v"]}\n'),
     None),
    (['eval', '-m', 'maybe', '-f', '0', 'id v'],
     0, '↑\n',
     None),
    (['eval', '-m', 'exc', '-f', '4', 'OMEGA'],
     0, '↑\n',
     None),
    (['eval', '-m', 'set', '-f', '2', 'OMEGA'],
     0, '∅\n',
     None),
    (['eval', '-m', 'dist', '-f', '3', 'Z (\\f. \\x. choice(x, f x)) v'],
     0, '{v: 1/2}\n',
     None),
    (['eval', '-m', 'state', '-f', '2', 'read[l0](v, OMEGA)'],
     0, '{00 ↦ (v, 00), 01 ↦ (v, 01), 10 ↦ ↑, 11 ↦ ↑}\n',
     None),
    (['diagram', '-m', 'dist', 'v'],
     0, '[η ‖ 1→v]\n',
     None),
    (['diagram', '-m', 'state', '--format', 'machine', '-f', '2',
      'read[l1](OMEGA, w)'],
     0, ('{"effect":{"arity":1,"body":{"kind":"state","locations":["l0'
      '","l1"],"table":[["00",null],["01",[1,"01"]],["10",null],["1'
      '1",[1,"11"]]]}},"row":["w"]}\n'),
     None),
    (['compose', '{dir}/outer.json', '{dir}/left.json', '{dir}/right.json'],
     0, '[3/8,1/8,1/2 ‖ 1→a ; 2→b ; 3→c]\n',
     None),
    (['compose', '--format', 'machine', '{dir}/outer.json',
      '{dir}/left.json', '{dir}/right.json'],
     0, ('{"effect":{"arity":3,"body":{"kind":"dist","entries":[[1,"3/'
      '8"],[2,"1/8"],[3,"1/2"]]}},"row":["a","b","c"]}\n'),
     None),
    (['eval', '-m', 'maybe', '(\\x. x'],
     2, '',
     "parse error: expected ')', found '' (at offset 6)\n"),
    (['diagram', '-m', 'dist', 'choice(v, w) ;'],
     2, '',
     "parse error: expected a term, found 'end' (at offset 14)\n"),
    (['eval', '-m', 'maybe', 'choice(v, w)'],
     3, '',
     ("signature error: operation 'choice' is not in the maybe sign"
      'ature\n')),
    (['eval', '-m', 'output', '--alphabet', 'ab', 'print[z](v)'],
     3, '',
     "signature error: character 'z' not in the alphabet\n"),
    (['eval', '-m', 'exc', '--exceptions', 'err', 'raise[boom]()'],
     3, '',
     "signature error: unknown exception label 'boom'\n"),
    (['diagram', '-m', 'state', 'read[l9](v, w)'],
     3, '',
     "signature error: unknown location 'l9'\n"),
    (['eval', '-m', 'state', 'write[l9,1](v)'],
     3, '',
     "signature error: unknown location 'l9'\n"),
    (['laws', '--monads', 'maybe,foo'],
     3, '',
     "kind error: unknown monad tag 'foo'\n"),
    (['compose', '{dir}/outer.json', '{dir}/left.json'],
     4, '',
     'error: family has 1 members, expected 2\n'),
    (['laws', '--seed', '1'],
     0, ('law            monad   result  expected\n'
      'kleisli        maybe   pass    pass\n'
      'kleisli        exc     pass    pass\n'
      'kleisli        set     pass    pass\n'
      'kleisli        dist    pass    pass\n'
      'kleisli        state   pass    pass\n'
      'kleisli        output  pass    pass\n'
      'algebraicity   maybe   pass    pass\n'
      'algebraicity   exc     pass    pass\n'
      'algebraicity   set     pass    pass\n'
      'algebraicity   dist    pass    pass\n'
      'algebraicity   state   pass    pass\n'
      'algebraicity   output  pass    pass\n'
      'unit           maybe   pass    pass\n'
      'unit           exc     pass    pass\n'
      'unit           set     pass    pass\n'
      'unit           dist    pass    pass\n'
      'unit           state   pass    pass\n'
      'unit           output  pass    pass\n'
      'associativity  maybe   pass    pass\n'
      'associativity  exc     pass    pass\n'
      'associativity  set     pass    pass\n'
      'associativity  dist    pass    pass\n'
      'associativity  state   pass    pass\n'
      'associativity  output  pass    pass\n'
      'composition    maybe   pass    pass\n'
      'composition    exc     pass    pass\n'
      'composition    set     pass    pass\n'
      'composition    dist    pass    pass\n'
      'composition    state   pass    pass\n'
      'composition    output  pass    pass\n'
      'binding        maybe   pass    pass\n'
      'binding        exc     pass    pass\n'
      'binding        set     pass    pass\n'
      'binding        dist    pass    pass\n'
      'binding        state   pass    pass\n'
      'binding        output  pass    pass\n'
      'congruence     maybe   pass    pass\n'
      'congruence     exc     pass    pass\n'
      'congruence     set     pass    pass\n'
      'congruence     dist    pass    pass\n'
      'congruence     state   pass    pass\n'
      'congruence     output  pass    pass\n'
      'monotonicity   maybe   pass    pass\n'
      'monotonicity   exc     pass    pass\n'
      'monotonicity   set     pass    pass\n'
      'monotonicity   dist    pass    pass\n'
      'monotonicity   state   pass    pass\n'
      'monotonicity   output  pass    pass\n'
      'bottom         maybe   pass    pass\n'
      'bottom         exc     pass    pass\n'
      'bottom         set     pass    pass\n'
      'bottom         dist    pass    pass\n'
      'bottom         state   pass    pass\n'
      'bottom         output  pass    pass\n'
      'absorption     maybe   pass    pass\n'
      'absorption     exc     fail    fail\n'
      '    counterexample: {"effect": {"arity": 0, "body": {"kind":'
      ' "exc", "exceptions": ["err"], "raised": "err"}}, "got": {"k'
      'ind": "exc", "exceptions": ["err"], "raised": "err"}}\n'
      'absorption     set     pass    pass\n'
      'absorption     dist    pass    pass\n'
      'absorption     state   pass    pass\n'
      'absorption     output  fail    fail\n'
      '    counterexample: {"effect": {"arity": 1, "body": {"kind":'
      ' "output", "alphabet": ["a", "b"], "out": "a", "value": 1}},'
      ' "got": {"kind": "output", "alphabet": ["a", "b"], "out":...'
      '\n'
      'commutativity  maybe   pass    pass\n'
      'commutativity  exc     fail    fail\n'
      '    counterexample: {"left_effect": {"arity": 0, "body": {"k'
      'ind": "exc", "exceptions": ["err"], "raised": "err"}}, "righ'
      't_effect": {"arity": 0, "body": {"kind": "exc", "exceptio...'
      '\n'
      'commutativity  set     pass    pass\n'
      'commutativity  dist    pass    pass\n'
      'commutativity  state   fail    fail\n'
      '    counterexample: {"left_effect": {"arity": 2, "body": {"k'
      'ind": "state", "locations": ["l0", "l1"], "table": [["00", ['
      '1, "00"]], ["01", [1, "01"]], ["10", [2, "10"]], ["11", [...'
      '\n'
      'commutativity  output  fail    fail\n'
      '    counterexample: {"left_effect": {"arity": 1, "body": {"k'
      'ind": "output", "alphabet": ["a", "b"], "out": "a", "value":'
      ' 1}}, "right_effect": {"arity": 1, "body": {"kind": "outp...'
      '\n'
      'expectations met (seed=1)\n'),
     None),
    (['laws', '--seed', '1', '--format', 'machine'],
     0, ('{"seed": 1, "ok": true, "results": [{"law": "kleisli", "mona'
      'd": "maybe", "pass": true, "trials": 50, "seed": 1, "expecte'
      'd_pass": true}, {"law": "kleisli", "monad": "exc", "pass": t'
      'rue, "trials": 50, "seed": 1, "expected_pass": true}, {"law"'
      ': "kleisli", "monad": "set", "pass": true, "trials": 50, "se'
      'ed": 1, "expected_pass": true}, {"law": "kleisli", "monad": '
      '"dist", "pass": true, "trials": 50, "seed": 1, "expected_pas'
      's": true}, {"law": "kleisli", "monad": "state", "pass": true'
      ', "trials": 50, "seed": 1, "expected_pass": true}, {"law": "'
      'kleisli", "monad": "output", "pass": true, "trials": 50, "se'
      'ed": 1, "expected_pass": true}, {"law": "algebraicity", "mon'
      'ad": "maybe", "pass": true, "trials": 50, "seed": 1, "expect'
      'ed_pass": true}, {"law": "algebraicity", "monad": "exc", "pa'
      'ss": true, "trials": 50, "seed": 1, "expected_pass": true}, '
      '{"law": "algebraicity", "monad": "set", "pass": true, "trial'
      's": 50, "seed": 1, "expected_pass": true}, {"law": "algebrai'
      'city", "monad": "dist", "pass": true, "trials": 50, "seed": '
      '1, "expected_pass": true}, {"law": "algebraicity", "monad": '
      '"state", "pass": true, "trials": 50, "seed": 1, "expected_pa'
      'ss": true}, {"law": "algebraicity", "monad": "output", "pass'
      '": true, "trials": 50, "seed": 1, "expected_pass": true}, {"'
      'law": "unit", "monad": "maybe", "pass": true, "trials": 50, '
      '"seed": 1, "expected_pass": true}, {"law": "unit", "monad": '
      '"exc", "pass": true, "trials": 50, "seed": 1, "expected_pass'
      '": true}, {"law": "unit", "monad": "set", "pass": true, "tri'
      'als": 50, "seed": 1, "expected_pass": true}, {"law": "unit",'
      ' "monad": "dist", "pass": true, "trials": 50, "seed": 1, "ex'
      'pected_pass": true}, {"law": "unit", "monad": "state", "pass'
      '": true, "trials": 50, "seed": 1, "expected_pass": true}, {"'
      'law": "unit", "monad": "output", "pass": true, "trials": 50,'
      ' "seed": 1, "expected_pass": true}, {"law": "associativity",'
      ' "monad": "maybe", "pass": true, "trials": 50, "seed": 1, "e'
      'xpected_pass": true}, {"law": "associativity", "monad": "exc'
      '", "pass": true, "trials": 50, "seed": 1, "expected_pass": t'
      'rue}, {"law": "associativity", "monad": "set", "pass": true,'
      ' "trials": 50, "seed": 1, "expected_pass": true}, {"law": "a'
      'ssociativity", "monad": "dist", "pass": true, "trials": 50, '
      '"seed": 1, "expected_pass": true}, {"law": "associativity", '
      '"monad": "state", "pass": true, "trials": 50, "seed": 1, "ex'
      'pected_pass": true}, {"law": "associativity", "monad": "outp'
      'ut", "pass": true, "trials": 50, "seed": 1, "expected_pass":'
      ' true}, {"law": "composition", "monad": "maybe", "pass": tru'
      'e, "trials": 50, "seed": 1, "expected_pass": true}, {"law": '
      '"composition", "monad": "exc", "pass": true, "trials": 50, "'
      'seed": 1, "expected_pass": true}, {"law": "composition", "mo'
      'nad": "set", "pass": true, "trials": 50, "seed": 1, "expecte'
      'd_pass": true}, {"law": "composition", "monad": "dist", "pas'
      's": true, "trials": 50, "seed": 1, "expected_pass": true}, {'
      '"law": "composition", "monad": "state", "pass": true, "trial'
      's": 50, "seed": 1, "expected_pass": true}, {"law": "composit'
      'ion", "monad": "output", "pass": true, "trials": 50, "seed":'
      ' 1, "expected_pass": true}, {"law": "binding", "monad": "may'
      'be", "pass": true, "trials": 50, "seed": 1, "expected_pass":'
      ' true}, {"law": "binding", "monad": "exc", "pass": true, "tr'
      'ials": 50, "seed": 1, "expected_pass": true}, {"law": "bindi'
      'ng", "monad": "set", "pass": true, "trials": 50, "seed": 1, '
      '"expected_pass": true}, {"law": "binding", "monad": "dist", '
      '"pass": true, "trials": 50, "seed": 1, "expected_pass": true'
      '}, {"law": "binding", "monad": "state", "pass": true, "trial'
      's": 50, "seed": 1, "expected_pass": true}, {"law": "binding"'
      ', "monad": "output", "pass": true, "trials": 50, "seed": 1, '
      '"expected_pass": true}, {"law": "congruence", "monad": "mayb'
      'e", "pass": true, "trials": 50, "seed": 1, "expected_pass": '
      'true}, {"law": "congruence", "monad": "exc", "pass": true, "'
      'trials": 50, "seed": 1, "expected_pass": true}, {"law": "con'
      'gruence", "monad": "set", "pass": true, "trials": 50, "seed"'
      ': 1, "expected_pass": true}, {"law": "congruence", "monad": '
      '"dist", "pass": true, "trials": 50, "seed": 1, "expected_pas'
      's": true}, {"law": "congruence", "monad": "state", "pass": t'
      'rue, "trials": 50, "seed": 1, "expected_pass": true}, {"law"'
      ': "congruence", "monad": "output", "pass": true, "trials": 5'
      '0, "seed": 1, "expected_pass": true}, {"law": "monotonicity"'
      ', "monad": "maybe", "pass": true, "trials": 50, "seed": 1, "'
      'expected_pass": true}, {"law": "monotonicity", "monad": "exc'
      '", "pass": true, "trials": 50, "seed": 1, "expected_pass": t'
      'rue}, {"law": "monotonicity", "monad": "set", "pass": true, '
      '"trials": 50, "seed": 1, "expected_pass": true}, {"law": "mo'
      'notonicity", "monad": "dist", "pass": true, "trials": 50, "s'
      'eed": 1, "expected_pass": true}, {"law": "monotonicity", "mo'
      'nad": "state", "pass": true, "trials": 50, "seed": 1, "expec'
      'ted_pass": true}, {"law": "monotonicity", "monad": "output",'
      ' "pass": true, "trials": 50, "seed": 1, "expected_pass": tru'
      'e}, {"law": "bottom", "monad": "maybe", "pass": true, "trial'
      's": 50, "seed": 1, "expected_pass": true}, {"law": "bottom",'
      ' "monad": "exc", "pass": true, "trials": 50, "seed": 1, "exp'
      'ected_pass": true}, {"law": "bottom", "monad": "set", "pass"'
      ': true, "trials": 50, "seed": 1, "expected_pass": true}, {"l'
      'aw": "bottom", "monad": "dist", "pass": true, "trials": 50, '
      '"seed": 1, "expected_pass": true}, {"law": "bottom", "monad"'
      ': "state", "pass": true, "trials": 50, "seed": 1, "expected_'
      'pass": true}, {"law": "bottom", "monad": "output", "pass": t'
      'rue, "trials": 50, "seed": 1, "expected_pass": true}, {"law"'
      ': "absorption", "monad": "maybe", "pass": true, "trials": 52'
      ', "seed": 1, "expected_pass": true}, {"law": "absorption", "'
      'monad": "exc", "pass": false, "trials": 1, "seed": 1, "expec'
      'ted_pass": false, "counterexample": {"effect": {"arity": 0, '
      '"body": {"kind": "exc", "exceptions": ["err"], "raised": "er'
      'r"}}, "got": {"kind": "exc", "exceptions": ["err"], "raised"'
      ': "err"}}}, {"law": "absorption", "monad": "set", "pass": tr'
      'ue, "trials": 53, "seed": 1, "expected_pass": true}, {"law":'
      ' "absorption", "monad": "dist", "pass": true, "trials": 53, '
      '"seed": 1, "expected_pass": true}, {"law": "absorption", "mo'
      'nad": "state", "pass": true, "trials": 58, "seed": 1, "expec'
      'ted_pass": true}, {"law": "absorption", "monad": "output", "'
      'pass": false, "trials": 1, "seed": 1, "expected_pass": false'
      ', "counterexample": {"effect": {"arity": 1, "body": {"kind":'
      ' "output", "alphabet": ["a", "b"], "out": "a", "value": 1}},'
      ' "got": {"kind": "output", "alphabet": ["a", "b"], "out": "a'
      '", "bottom": true}}}, {"law": "commutativity", "monad": "may'
      'be", "pass": true, "trials": 54, "seed": 1, "expected_pass":'
      ' true}, {"law": "commutativity", "monad": "exc", "pass": fal'
      'se, "trials": 3, "seed": 1, "expected_pass": false, "counter'
      'example": {"left_effect": {"arity": 0, "body": {"kind": "exc'
      '", "exceptions": ["err"], "raised": "err"}}, "right_effect":'
      ' {"arity": 0, "body": {"kind": "exc", "exceptions": ["err"],'
      ' "bottom": true}}, "grid": [], "lhs": {"kind": "exc", "excep'
      'tions": ["err"], "raised": "err"}, "rhs": {"kind": "exc", "e'
      'xceptions": ["err"], "bottom": true}}}, {"law": "commutativi'
      'ty", "monad": "set", "pass": true, "trials": 59, "seed": 1, '
      '"expected_pass": true}, {"law": "commutativity", "monad": "d'
      'ist", "pass": true, "trials": 59, "seed": 1, "expected_pass"'
      ': true}, {"law": "commutativity", "monad": "state", "pass": '
      'false, "trials": 3, "seed": 1, "expected_pass": false, "coun'
      'terexample": {"left_effect": {"arity": 2, "body": {"kind": "'
      'state", "locations": ["l0", "l1"], "table": [["00", [1, "00"'
      ']], ["01", [1, "01"]], ["10", [2, "10"]], ["11", [2, "11"]]]'
      '}}, "right_effect": {"arity": 1, "body": {"kind": "state", "'
      'locations": ["l0", "l1"], "table": [["00", [1, "00"]], ["01"'
      ', [1, "01"]], ["10", [1, "00"]], ["11", [1, "01"]]]}}, "grid'
      '": [["x11"], ["x21"]], "lhs": {"kind": "state", "locations":'
      ' ["l0", "l1"], "table": [["00", ["x11", "00"]], ["01", ["x11'
      '", "01"]], ["10", ["x21", "00"]], ["11", ["x21", "01"]]]}, "'
      'rhs": {"kind": "state", "locations": ["l0", "l1"], "table": '
      '[["00", ["x11", "00"]], ["01", ["x11", "01"]], ["10", ["x11"'
      ', "00"]], ["11", ["x11", "01"]]]}}}, {"law": "commutativity"'
      ', "monad": "output", "pass": false, "trials": 2, "seed": 1, '
      '"expected_pass": false, "counterexample": {"left_effect": {"'
      'arity": 1, "body": {"kind": "output", "alphabet": ["a", "b"]'
      ', "out": "a", "value": 1}}, "right_effect": {"arity": 1, "bo'
      'dy": {"kind": "output", "alphabet": ["a", "b"], "out": "b", '
      '"value": 1}}, "grid": [["x11"]], "lhs": {"kind": "output", "'
      'alphabet": ["a", "b"], "out": "ab", "value": "x11"}, "rhs": '
      '{"kind": "output", "alphabet": ["a", "b"], "out": "ba", "val'
      'ue": "x11"}}}]}\n'),
     None),
    (['compose', '{dir}/no-arity.json'],
     3, '',
     "kind error: bad serialized presentation: missing key 'arity'\n"),
    (['compose', '{dir}/outer.json', '{dir}/no-entries.json',
      '{dir}/right.json'],
     3, '',
     "kind error: bad serialized dist value: missing key 'entries'\n"),
    (['compose', '{dir}/no-table.json'],
     3, '',
     "kind error: bad serialized state value: missing key 'table'\n"),
    (['compose', '{dir}/no-locations.json'],
     3, '',
     ("kind error: bad serialized state value: missing key 'locat"
      "ions'\n")),
    (['compose', '{dir}/row-not-list.json'],
     3, '',
     "kind error: bad serialized presentation: row 'c' is not a list\n"),
    (['eval', '-m', 'maybe', '-f', '300', 'OMEGA'],
     5, '',
     TOO_DEEP),
    # the parser keeps its own stack: the chain runs out of fuel 32 on
    # its way, and the parentheses only group
    (['eval', '-m', 'maybe', ' ; '.join(['v'] * 3000)],
     0, '↑\n',
     ''),
    (['eval', '-m', 'maybe', '(' * 5000 + 'v' + ')' * 5000],
     0, 'v\n',
     ''),
    (['compose', '{dir}/bool-row.json', '{dir}/bool-row.json'],
     3, '',
     'kind error: bad serialized carrier element: True\n'),
    (['compose', '--format', 'machine', '{dir}/bool-row.json',
      '{dir}/bool-row.json'],
     3, '',
     'kind error: bad serialized carrier element: True\n'),
    (['compose', '{dir}/outer.json', '{dir}/float-prob.json',
      '{dir}/right.json'],
     3, '',
     _bad_probability('0.1')),
    (['compose', '{dir}/number-prob.json'],
     3, '',
     _bad_probability('1')),
    (['compose', '{dir}/padded-prob.json'],
     3, '',
     _bad_probability("' 2/4 '")),
    (['compose', '{dir}/exponent-prob.json'],
     3, '',
     _bad_probability("'1e-1'")),
    (['compose', '--format', 'machine', '{dir}/zero-denominator.json'],
     3, '',
     _bad_probability("'1/0'")),
    (['eval', '-m', 'state', '--locations', 'l0,l0', 'v'],
     3, '',
     "kind error: duplicate entries in locations: ('l0', 'l0')\n"),
    (['eval', '-m', 'output', 'print[a b](v)'],
     2, '',
     "parse error: expected ',' or ']' in index list (at offset 8)\n"),
    (['eval', '--prelude', '{dir}/oops.defs', 'v'],
     2, '',
     "parse error: bad definition line: 'oops' (at offset 0)\n"),
    (['compose', '{dir}/string-locations.json'],
     3, '',
     ("kind error: bad serialized state value: locations 'l0' is not a l"
      "ist\n")),
    (['compose', '{dir}/outer.json', '{dir}/deep.json'],
     5, '',
     ('error: recursion limit reached: {dir}/deep.json nests its JSON too '
      'deeply to read\n')),
    (['compose', '{dir}/outer.json', '{dir}/not-json.json'],
     1, '',
     'error: {dir}/not-json.json: Expecting value: line 1 column 1 (char 0)\n'),
    (['compose', '{dir}/outer.json', '{dir}/latin-1.json'],
     1, '',
     ("error: {dir}/latin-1.json: 'utf-8' codec can't decode byte 0xe9 in "
      "position 13: invalid continuation byte\n")),
    (['eval', '-m', 'exc', '--exceptions', 'e1,e2', 'raise[e2]()'],
     0, 'raise e2\n',
     None),
    # the prelude is parsed when the package is imported
    (['eval', '-m', 'output', '--alphabet', 'ab', '-f', '20',
      'three (\\x. print[a](x)) v'],
     0, '("aaa", v)\n',
     None),
    # an operation on values, alone or before ";", binds its generic
    # effect directly
    (['eval', '-m', 'dist', 'choice(v, v) ; w'],
     0, '{w: 1}\n',
     None),
    (['eval', '-m', 'state', '--locations', 'l0,l1',
      'read[l0](v, w) ; write[l1,1](v)'],
     0, '{00 ↦ (v, 01), 01 ↦ (v, 01), 10 ↦ (v, 11), 11 ↦ (v, 11)}\n',
     None),
    # op(e1, ..., en) ; f is op(e1 ; f, ..., en ; f), with f run at most
    # once and only after every argument
    (['eval', '-m', 'state', '--locations', 'l0,l1', '-f', '10',
      'read[l0](write[l1,1](v), w) ; read[l1](w, write[l0,0](v))'],
     0, '{00 ↦ (v, 01), 01 ↦ (v, 01), 10 ↦ (w, 10), 11 ↦ (v, 01)}\n',
     None),
    (['eval', '-m', 'dist', '-f', '10', 'choice(choice(a, OMEGA), c) ; v'],
     0, '{v: 3/4}\n',
     None),
    (['eval', '-m', 'set', '-f', '10', 'union(a, (b c)) ; (d e)'],
     1, '',
     'error: cannot apply b: free variables are inert symbols\n'),
    (['diagram', '-m', 'output', '--alphabet', 'ab', 'print[a](v)'],
     0, '[(a,1) ‖ 1→v]\n',
     None),
    (['laws', '--seed', '3', '--trials', '5'],
     0, ('law            monad   result  expected\n'
      'kleisli        maybe   pass    pass\n'
      'kleisli        exc     pass    pass\n'
      'kleisli        set     pass    pass\n'
      'kleisli        dist    pass    pass\n'
      'kleisli        state   pass    pass\n'
      'kleisli        output  pass    pass\n'
      'algebraicity   maybe   pass    pass\n'
      'algebraicity   exc     pass    pass\n'
      'algebraicity   set     pass    pass\n'
      'algebraicity   dist    pass    pass\n'
      'algebraicity   state   pass    pass\n'
      'algebraicity   output  pass    pass\n'
      'unit           maybe   pass    pass\n'
      'unit           exc     pass    pass\n'
      'unit           set     pass    pass\n'
      'unit           dist    pass    pass\n'
      'unit           state   pass    pass\n'
      'unit           output  pass    pass\n'
      'associativity  maybe   pass    pass\n'
      'associativity  exc     pass    pass\n'
      'associativity  set     pass    pass\n'
      'associativity  dist    pass    pass\n'
      'associativity  state   pass    pass\n'
      'associativity  output  pass    pass\n'
      'composition    maybe   pass    pass\n'
      'composition    exc     pass    pass\n'
      'composition    set     pass    pass\n'
      'composition    dist    pass    pass\n'
      'composition    state   pass    pass\n'
      'composition    output  pass    pass\n'
      'binding        maybe   pass    pass\n'
      'binding        exc     pass    pass\n'
      'binding        set     pass    pass\n'
      'binding        dist    pass    pass\n'
      'binding        state   pass    pass\n'
      'binding        output  pass    pass\n'
      'congruence     maybe   pass    pass\n'
      'congruence     exc     pass    pass\n'
      'congruence     set     pass    pass\n'
      'congruence     dist    pass    pass\n'
      'congruence     state   pass    pass\n'
      'congruence     output  pass    pass\n'
      'monotonicity   maybe   pass    pass\n'
      'monotonicity   exc     pass    pass\n'
      'monotonicity   set     pass    pass\n'
      'monotonicity   dist    pass    pass\n'
      'monotonicity   state   pass    pass\n'
      'monotonicity   output  pass    pass\n'
      'bottom         maybe   pass    pass\n'
      'bottom         exc     pass    pass\n'
      'bottom         set     pass    pass\n'
      'bottom         dist    pass    pass\n'
      'bottom         state   pass    pass\n'
      'bottom         output  pass    pass\n'
      'absorption     maybe   pass    pass\n'
      'absorption     exc     fail    fail\n'
      '    counterexample: {"effect": {"arity": 0, "body": {"kind":'
      ' "exc", "exceptions": ["err"], "raised": "err"}}, "got": {"k'
      'ind": "exc", "exceptions": ["err"], "raised": "err"}}\n'
      'absorption     set     pass    pass\n'
      'absorption     dist    pass    pass\n'
      'absorption     state   pass    pass\n'
      'absorption     output  fail    fail\n'
      '    counterexample: {"effect": {"arity": 1, "body": {"kind":'
      ' "output", "alphabet": ["a", "b"], "out": "a", "value": 1}},'
      ' "got": {"kind": "output", "alphabet": ["a", "b"], "out":...'
      '\n'
      'commutativity  maybe   pass    pass\n'
      'commutativity  exc     fail    fail\n'
      '    counterexample: {"left_effect": {"arity": 0, "body": {"k'
      'ind": "exc", "exceptions": ["err"], "raised": "err"}}, "righ'
      't_effect": {"arity": 0, "body": {"kind": "exc", "exceptio...'
      '\n'
      'commutativity  set     pass    pass\n'
      'commutativity  dist    pass    pass\n'
      'commutativity  state   fail    fail\n'
      '    counterexample: {"left_effect": {"arity": 2, "body": {"k'
      'ind": "state", "locations": ["l0", "l1"], "table": [["00", ['
      '1, "00"]], ["01", [1, "01"]], ["10", [2, "10"]], ["11", [...'
      '\n'
      'commutativity  output  fail    fail\n'
      '    counterexample: {"left_effect": {"arity": 1, "body": {"k'
      'ind": "output", "alphabet": ["a", "b"], "out": "a", "value":'
      ' 1}}, "right_effect": {"arity": 1, "body": {"kind": "outp...'
      '\n'
      'expectations met (seed=3)\n'),
     None),
    # the kind options come from the instance registry
    (['laws', '--monads', 'exc,state,output', '--exceptions', 'e1,e2',
      '--locations', 'l0', '--alphabet', 'abc', '--seed', '3', '--trials',
      '5'],
     0, ('law            monad   result  expected\n'
      'kleisli        exc     pass    pass\n'
      'kleisli        state   pass    pass\n'
      'kleisli        output  pass    pass\n'
      'algebraicity   exc     pass    pass\n'
      'algebraicity   state   pass    pass\n'
      'algebraicity   output  pass    pass\n'
      'unit           exc     pass    pass\n'
      'unit           state   pass    pass\n'
      'unit           output  pass    pass\n'
      'associativity  exc     pass    pass\n'
      'associativity  state   pass    pass\n'
      'associativity  output  pass    pass\n'
      'composition    exc     pass    pass\n'
      'composition    state   pass    pass\n'
      'composition    output  pass    pass\n'
      'binding        exc     pass    pass\n'
      'binding        state   pass    pass\n'
      'binding        output  pass    pass\n'
      'congruence     exc     pass    pass\n'
      'congruence     state   pass    pass\n'
      'congruence     output  pass    pass\n'
      'monotonicity   exc     pass    pass\n'
      'monotonicity   state   pass    pass\n'
      'monotonicity   output  pass    pass\n'
      'bottom         exc     pass    pass\n'
      'bottom         state   pass    pass\n'
      'bottom         output  pass    pass\n'
      'absorption     exc     fail    fail\n'
      '    counterexample: {"effect": {"arity": 0, "body": {"kind":'
      ' "exc", "exceptions": ["e1", "e2"], "raised": "e1"}}, "got":'
      ' {"kind": "exc", "exceptions": ["e1", "e2"], "raised": "e...'
      '\n'
      'absorption     state   pass    pass\n'
      'absorption     output  fail    fail\n'
      '    counterexample: {"effect": {"arity": 1, "body": {"kind":'
      ' "output", "alphabet": ["a", "b", "c"], "out": "a", "value":'
      ' 1}}, "got": {"kind": "output", "alphabet": ["a", "b", "c...'
      '\n'
      'commutativity  exc     fail    fail\n'
      '    counterexample: {"left_effect": {"arity": 0, "body": {"k'
      'ind": "exc", "exceptions": ["e1", "e2"], "raised": "e1"}}, "'
      'right_effect": {"arity": 0, "body": {"kind": "exc", "exce...'
      '\n'
      'commutativity  state   fail    fail\n'
      '    counterexample: {"left_effect": {"arity": 2, "body": {"k'
      'ind": "state", "locations": ["l0"], "table": [["0", [1, "0"]'
      '], ["1", [2, "1"]]]}}, "right_effect": {"arity": 1, "body...'
      '\n'
      'commutativity  output  fail    fail\n'
      '    counterexample: {"left_effect": {"arity": 1, "body": {"k'
      'ind": "output", "alphabet": ["a", "b", "c"], "out": "a", "va'
      'lue": 1}}, "right_effect": {"arity": 1, "body": {"kind": ...'
      '\n'
      'expectations met (seed=3)\n'),
     None),
    (['compose', '{dir}/thirds.json', '{dir}/left.json', '{dir}/left.json'],
     0, '[1/4,1/12,1/2,1/6 ‖ 1→a ; 2→b ; 3→a ; 4→b]\n',
     None),
    (['compose', '{dir}/thirds.json', '{dir}/float-entry.json',
      '{dir}/left.json'],
     3, '',
     _bad_probability('0.75')),
    (['compose', '{dir}/wide.json'],
     3, '',
     ('kind error: bad serialized presentation: effect body mentions '
      'indices outside 1..1\n')),
    # the parser keeps its own stack
    (['eval', '-m', 'maybe', '@{dir}/deep-program.txt'],
     0, 'v\n',
     ''),
    (['compose', '{dir}/dup-entries.json', '{dir}/right.json'],
     3, '',
     'kind error: bad serialized dist value: entries list an element twice\n'),
    (['compose', '{dir}/dup-store.json', '{dir}/one-state.json'],
     3, '',
     'kind error: bad serialized state value: table lists a store twice\n'),
    (['eval', '-m', 'dist', '--format', 'machine', 'choice(v, w)'],
     0, '{"kind":"dist","entries":[["v","1/2"],["w","1/2"]]}\n',
     ''),
    # a program read from a file
    (['eval', '-m', 'dist', '@{dir}/prog.lam'],
     0, '{v: 1/2, w: 1/2}\n',
     ''),
    # index texts made of digits; a superscript digit is no location
    (['eval', '-m', 'output', '--alphabet', '01', 'print[0](v)'],
     0, '("0", v)\n',
     ''),
    (['eval', '-m', 'state', '--locations', '0,1', 'read[0](v, w)'],
     0, '{00 ↦ (v, 00), 01 ↦ (v, 01), 10 ↦ (w, 10), 11 ↦ (w, 11)}\n',
     ''),
    (['eval', '-m', 'exc', '--exceptions', '404', 'raise[404]()'],
     0, 'raise 404\n',
     ''),
    (['eval', '-m', 'state', 'read[²](v, w)'],
     3, '',
     "signature error: unknown location '²'\n"),
    # bracket entries need not be identifiers
    (['eval', '-m', 'output', '--alphabet=-a', 'print[-](v)'],
     0, '("-", v)\n',
     ''),
    (['eval', '-m', 'exc', '--exceptions', 'not-found', 'raise[not-found]()'],
     0, 'raise not-found\n',
     ''),
    (['eval', '-m', 'state', '--locations', 'l.0', 'read[ l.0 ](v, w)'],
     0, '{0 ↦ (v, 0), 1 ↦ (w, 1)}\n',
     ''),
    # a prelude file continues the default prelude and sees its names
    (['eval', '-m', 'maybe', '--prelude', '{dir}/twice.lam', 'twice id v'],
     0, 'v\n',
     ''),
    (['eval', '--prelude', '{dir}/foo.lam', 'foo v'],
     0, 'v\n',
     ''),
    (['diagram', '-m', 'maybe', 'v'],
     0, '[η ‖ 1→v]\n',
     ''),
    # blocks under a fair choice; a member of another kind; a boolean arity
    (['compose', '{dir}/outer.json', '{dir}/trivial-x.json',
      '{dir}/halves-xy.json'],
     0, '[1/2,1/4,1/4 ‖ 1→x ; 2→x ; 3→y]\n',
     ''),
    (['compose', '{dir}/trivial-x.json', '{dir}/maybe-x.json'],
     3, '',
     'kind error: family member of kind maybe under dist\n'),
    (['compose', '{dir}/bool-arity.json', '{dir}/bool-arity.json'],
     3, '',
     ('kind error: bad serialized presentation: arity must be an in'
      't, got True\n')),
    (['compose', '--format', 'machine', '{dir}/bool-arity.json',
      '{dir}/bool-arity.json'],
     3, '',
     ('kind error: bad serialized presentation: arity must be an in'
      't, got True\n')),
    # law runs with an expected failure, kind options, a bad name or bound
    (['laws', '--laws', 'commutativity', '--monads', 'output', '--trials',
      '3'],
     0, ('law            monad   result  expected\n'
      'commutativity  output  fail    fail\n'
      '    counterexample: {"left_effect": {"arity": 1, "body": {"k'
      'ind": "output", "alphabet": ["a", "b"], "out": "a", "value":'
      ' 1}}, "right_effect": {"arity": 1, "body": {"kind": "outp...'
      '\n'
      'expectations met (seed=1)\n'),
     ''),
    (['laws', '--laws', 'kleisli', '--trials', '1'],
     0, ('law            monad   result  expected\n'
      'kleisli        maybe   pass    pass\n'
      'kleisli        exc     pass    pass\n'
      'kleisli        set     pass    pass\n'
      'kleisli        dist    pass    pass\n'
      'kleisli        state   pass    pass\n'
      'kleisli        output  pass    pass\n'
      'expectations met (seed=1)\n'),
     ''),
    (['laws', '--format', 'machine', '--laws', 'bottom', '--trials', '2',
      '--seed', '7'],
     0, ('{"seed": 7, "ok": true, "results": [{"law": "bottom", "monad'
      '": "maybe", "pass": true, "trials": 2, "seed": 7, "expected_'
      'pass": true}, {"law": "bottom", "monad": "exc", "pass": true'
      ', "trials": 2, "seed": 7, "expected_pass": true}, {"law": "b'
      'ottom", "monad": "set", "pass": true, "trials": 2, "seed": 7'
      ', "expected_pass": true}, {"law": "bottom", "monad": "dist",'
      ' "pass": true, "trials": 2, "seed": 7, "expected_pass": true'
      '}, {"law": "bottom", "monad": "state", "pass": true, "trials'
      '": 2, "seed": 7, "expected_pass": true}, {"law": "bottom", "'
      'monad": "output", "pass": true, "trials": 2, "seed": 7, "exp'
      'ected_pass": true}]}\n'),
     ''),
    (['laws', '--laws', 'commutativity', '--trials', '1', '--locations', 'zz',
      '--format', 'machine'],
     0, ('{"seed": 1, "ok": true, "results": [{"law": "commutativity",'
      ' "monad": "maybe", "pass": true, "trials": 5, "seed": 1, "ex'
      'pected_pass": true}, {"law": "commutativity", "monad": "exc"'
      ', "pass": false, "trials": 3, "seed": 1, "expected_pass": fa'
      'lse, "counterexample": {"left_effect": {"arity": 0, "body": '
      '{"kind": "exc", "exceptions": ["err"], "raised": "err"}}, "r'
      'ight_effect": {"arity": 0, "body": {"kind": "exc", "exceptio'
      'ns": ["err"], "bottom": true}}, "grid": [], "lhs": {"kind": '
      '"exc", "exceptions": ["err"], "raised": "err"}, "rhs": {"kin'
      'd": "exc", "exceptions": ["err"], "bottom": true}}}, {"law":'
      ' "commutativity", "monad": "set", "pass": true, "trials": 10'
      ', "seed": 1, "expected_pass": true}, {"law": "commutativity"'
      ', "monad": "dist", "pass": true, "trials": 10, "seed": 1, "e'
      'xpected_pass": true}, {"law": "commutativity", "monad": "sta'
      'te", "pass": false, "trials": 2, "seed": 1, "expected_pass":'
      ' false, "counterexample": {"left_effect": {"arity": 2, "body'
      '": {"kind": "state", "locations": ["zz"], "table": [["0", [1'
      ', "0"]], ["1", [2, "1"]]]}}, "right_effect": {"arity": 1, "b'
      'ody": {"kind": "state", "locations": ["zz"], "table": [["0",'
      ' [1, "0"]], ["1", [1, "0"]]]}}, "grid": [["x11"], ["x21"]], '
      '"lhs": {"kind": "state", "locations": ["zz"], "table": [["0"'
      ', ["x11", "0"]], ["1", ["x21", "0"]]]}, "rhs": {"kind": "sta'
      'te", "locations": ["zz"], "table": [["0", ["x11", "0"]], ["1'
      '", ["x11", "0"]]]}}}, {"law": "commutativity", "monad": "out'
      'put", "pass": false, "trials": 2, "seed": 1, "expected_pass"'
      ': false, "counterexample": {"left_effect": {"arity": 1, "bod'
      'y": {"kind": "output", "alphabet": ["a", "b"], "out": "a", "'
      'value": 1}}, "right_effect": {"arity": 1, "body": {"kind": "'
      'output", "alphabet": ["a", "b"], "out": "b", "value": 1}}, "'
      'grid": [["x11"]], "lhs": {"kind": "output", "alphabet": ["a"'
      ', "b"], "out": "ab", "value": "x11"}, "rhs": {"kind": "outpu'
      't", "alphabet": ["a", "b"], "out": "ba", "value": "x11"}}}]}'
      '\n'),
     ''),
    (['laws', '--laws', 'bogus'],
     1, '',
     "error: unknown law identifiers: ['bogus']\n"),
    (['laws', '--laws', 'kleisli', '--monads', 'set', '--trials', '1',
      '--carrier-max', '9'],
     1, '',
     'error: carrier_size_max must be <= 5\n'),
    (['laws', '--laws', 'composition,bottom', '--monads', 'set',
      '--arity-max', '33'],
     1, '',
     'error: arity_max must be <= 32\n'),
    (['laws', '--laws', 'composition,bottom', '--monads', 'set',
      '--arity-max', '32', '--trials', '200'],
     0, ('law            monad   result  expected\n'
      'composition    set     pass    pass\n'
      'bottom         set     pass    pass\n'
      'expectations met (seed=1)\n'),
     ''),
    (['laws', '--format', 'machine', '--laws', 'bottom', '--trials', '2'],
     0, ('{"seed": 1, "ok": true, "results": [{"law": "bottom", "monad'
      '": "maybe", "pass": true, "trials": 2, "seed": 1, "expected_'
      'pass": true}, {"law": "bottom", "monad": "exc", "pass": true'
      ', "trials": 2, "seed": 1, "expected_pass": true}, {"law": "b'
      'ottom", "monad": "set", "pass": true, "trials": 2, "seed": 1'
      ', "expected_pass": true}, {"law": "bottom", "monad": "dist",'
      ' "pass": true, "trials": 2, "seed": 1, "expected_pass": true'
      '}, {"law": "bottom", "monad": "state", "pass": true, "trials'
      '": 2, "seed": 1, "expected_pass": true}, {"law": "bottom", "'
      'monad": "output", "pass": true, "trials": 2, "seed": 1, "exp'
      'ected_pass": true}]}\n'),
     ''),
    # an option that a subcommand does not read is a bad argument: one line
    # on stderr and no usage text
    *[([command, *args, flag, value], 2, '',
       f'effdiag: error: unrecognized arguments: {flag} {value}\n')
      for command, args, unread in (
          ('eval', ['v'], [('--seed', '1')]),
          ('diagram', ['v'], [('--seed', '1')]),
          ('compose', ['{dir}/outer.json'],
           [('-m', 'dist'), ('--exceptions', 'err'), ('--locations', 'l0'),
            ('--alphabet', 'ab'), ('-f', '5'), ('--prelude', 'defs.lam'),
            ('--seed', '1')]),
          ('laws', ['--laws', 'bottom', '--trials', '1'],
           [('-m', 'dist'), ('-f', '5'), ('--prelude', 'defs.lam')]))
      for flag, value in unread],
    # compose reads each file as bytes: CRLF and lone-CR line ends, a byte
    # order mark, an empty file and a byte that is not UTF-8 read as text
    # mode reads them, and every error keeps its position
    (['compose', '{dir}/crlf.json', '{dir}/left.json', '{dir}/right.json'],
     0, '[3/8,1/8,1/2 ‖ 1→a ; 2→b ; 3→c]\n',
     ''),
    (['compose', '{dir}/lone-cr.json', '{dir}/left.json', '{dir}/right.json'],
     0, '[3/8,1/8,1/2 ‖ 1→a ; 2→b ; 3→c]\n',
     ''),
    (['compose', '{dir}/crlf-bad.json'],
     1, '',
     ("error: {dir}/crlf-bad.json: Expecting ',' delimiter: line 3 column "
      '27 (char 52)\n')),
    (['compose', '{dir}/outer.json', '{dir}/lone-cr-bad.json'],
     1, '',
     ("error: {dir}/lone-cr-bad.json: Expecting ',' delimiter: line 3 "
      'column 27 (char 52)\n')),
    (['compose', '{dir}/cr-in-string.json'],
     1, '',
     ('error: {dir}/cr-in-string.json: Invalid control character at: line '
      '1 column 75 (char 74)\n')),
    (['compose', '{dir}/bom.json'],
     1, '',
     ('error: {dir}/bom.json: Unexpected UTF-8 BOM (decode using utf-8-sig)'
      ': line 1 column 1 (char 0)\n')),
    (['compose', '{dir}/outer.json', '{dir}/empty.json'],
     1, '',
     'error: {dir}/empty.json: Expecting value: line 1 column 1 (char 0)\n'),
    (['compose', '{dir}/outer.json', '{dir}/latin-1-crlf.json'],
     1, '',
     ("error: {dir}/latin-1-crlf.json: 'utf-8' codec can't decode byte 0xe9"
      ' in position 18: invalid continuation byte\n')),
    # a store that is not a bit string is refused, a list of one bit and
    # an int alike
    (['compose', '{dir}/list-store.json', '{dir}/one-state.json'],
     3, '',
     "kind error: bad serialized store ['0']\n"),
    (['compose', '{dir}/int-store.json', '{dir}/one-state.json'],
     3, '',
     'kind error: bad serialized store 0\n'),
    # a line end inside a bad argument stays on the one stderr line
    (['eval', 'v', '--x\ny'],
     2, '',
     'effdiag: error: unrecognized arguments: --x\\ny\n'),
    (['eval', 'v', '--x\ry'],
     2, '',
     'effdiag: error: unrecognized arguments: --x\\ry\n'),
    # no location or exception label is named by the empty string
    (['eval', '-m', 'state', '--locations', '', 'v'],
     3, '',
     "kind error: empty location in ('',)\n"),
    (['eval', '-m', 'state', '--locations', 'l0,,l1', 'v'],
     3, '',
     "kind error: empty location in ('l0', '', 'l1')\n"),
    (['eval', '-m', 'exc', '--exceptions', '', 'v'],
     3, '',
     "kind error: empty exception label in ('',)\n"),
    (['laws', '--monads', 'exc', '--exceptions', 'err,'],
     3, '',
     "kind error: empty exception label in ('err', '')\n"),
    (['compose', '{dir}/empty-location.json', '{dir}/empty-location.json'],
     3, '',
     "kind error: empty location in ('',)\n"),
]


@pytest.fixture
def workdir(tmp_path):
    for name, text in FILES.items():
        if isinstance(text, bytes):
            (tmp_path / name).write_bytes(text)
        else:
            (tmp_path / name).write_text(text, encoding="utf-8")
    return tmp_path


def _answers(got, code, stdout, stderr, workdir):
    assert got[:2] == (code, stdout)
    if stderr is not None:
        assert got[2] == stderr.replace("{dir}", str(workdir))


each_case = pytest.mark.parametrize(
    "argv, code, stdout, stderr", CASES,
    ids=[f"{i:02d}-{case[0][0]}" for i, case in enumerate(CASES)])


@each_case
def test_golden(argv, code, stdout, stderr, workdir, capsys):
    got = main([a.replace("{dir}", str(workdir)) for a in argv])
    _answers((got, *capsys.readouterr()), code, stdout, stderr, workdir)


@each_case
def test_golden_fresh(argv, code, stdout, stderr, workdir):
    got = run_fresh([a.replace("{dir}", str(workdir)) for a in argv])
    _answers(got, code, stdout, stderr, workdir)
