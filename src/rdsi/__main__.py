import sys

from rdsi.cli import main

sys.exit(main())
