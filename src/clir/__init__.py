"""Two-stage cross-language retrieval: translated-query search, re-ranking
over back-translated documents, and a TREC-style evaluation harness.

The package exports the names of README's "Library use"; everything else is
imported from its module, such as ``clir.translate.TableAdapter``.
"""

__version__ = "0.1.0"

from clir.corpus import AnalyzerConfig, load_corpus, load_queries
from clir.index import build_index
from clir.pipeline import PipelineConfig, run_two_stage
from clir.translate import TranslationMethod
