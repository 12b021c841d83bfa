"""InVerDa: co-existing schema versions on one shared data set.

The public entry point is :class:`~repro.core.engine.InVerDa`:

>>> import repro
>>> db = repro.InVerDa()
>>> db.execute('''
...     CREATE SCHEMA VERSION TasKy WITH
...     CREATE TABLE Task(author TEXT, task TEXT, prio INTEGER);
... ''')
>>> tasky = repro.connect(db, "TasKy", autocommit=True)
>>> tasky.execute("INSERT INTO Task VALUES ('Ann', 'Organize party', 3)").rowcount
1
"""

from repro.core.engine import InVerDa

__all__ = ["InVerDa"]
