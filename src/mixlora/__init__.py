"""Sparse mixture of LoRA experts over a shared frozen FFN, desk scale.

The root re-exports nothing: import each name from the module that defines
it, so ``import mixlora.train`` gives the training module.
"""

__version__ = "0.1.0"
