"""scenkit: three-level scenario pipeline for automated-vehicle test generation.

Functional scenarios (vocabulary-grounded controlled language) are lowered to
logical scenarios (parameter ranges with constraints) and concretized into
fully grounded scenarios, which are then augmented into executable test cases.
"""

__version__ = "0.1.0"
