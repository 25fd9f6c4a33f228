"""Session setup for every test under this root.

``gapsl`` pins the BLAS thread pools before numpy loads. Imported here,
ahead of any test module's numpy import, the pin holds for the in-process
tests too, so they replay the bits a ``gapsl run`` would.
"""

import gapsl  # noqa: F401
