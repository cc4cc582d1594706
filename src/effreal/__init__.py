"""effreal: a checker and toolchain for intuitionistic higher-order logic,
an effectful higher-order program logic, and the realizability translation
between them.

The subpackages hold the two kernels (:mod:`effreal.hol`,
:mod:`effreal.effhol`); import the toolchain's entry points from the
modules that define them (:mod:`effreal.translation`,
:mod:`effreal.instances`, :mod:`effreal.frame`, :mod:`effreal.surface`).
"""
