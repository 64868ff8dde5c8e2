"""quatsplit: exact division/split decisions for quaternion algebras H(p1, p2)
over quadratic, biquadratic, cyclotomic, and Kummer base fields, with an
independent local-global oracle for cross-validation.

The package root re-exports nothing: each name lives in the module that
defines it (`quatsplit.classify.classify`, `quatsplit.oracle.division_oracle`,
`quatsplit.hilbert.ramified_places`, ...), so `import quatsplit.classify`
binds the module and a bare `import quatsplit` loads no submodule."""

__version__ = "0.1.0"
