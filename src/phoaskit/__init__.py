"""Modular abstract syntax with parametric binders.

Language signatures are two-parameter shapes composed by coproduct;
binders are embedded functions over an opaque variable type; passes are
algebras folded by catamorphisms or constructor-to-context homomorphisms
that fuse with each other and with algebras.  The ``lang`` module wires
the machinery into a small lambda language with a parser, pretty printer,
desugarer, constant folder and interpreters.
"""
from . import algebra, hom, names, result, signature, term
from .algebra import *
from .hom import *
from .names import *
from .result import *
from .signature import *
from .term import *

__all__ = algebra.__all__ + hom.__all__ + names.__all__ + result.__all__ + signature.__all__ + term.__all__
