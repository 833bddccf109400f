"""unikw: unified keyword retrieval.

One encoder forward pass produces both a dense embedding (for
nearest-neighbor search) and a full per-position token distribution table
(for trie-constrained, order-permuted beam decoding).  The two retrieval
channels are trained jointly with a triplet-margin plus token
log-likelihood objective and merged at inference time.
"""

__version__ = "0.1.0"

from .corpus import (
    DEFAULT_MAX_LEN,
    EOW_ID,
    PAD_ID,
    UNK_ID,
    Catalog,
    TokenSeq,
    TrainingPair,
    Vocab,
    build_vocab,
    detokenize,
    load_keywords,
    load_pairs,
    load_vocab,
    save_vocab,
    tokenize,
    tokenize_batch,
)
from .decoder import (
    DecodeConfig,
    beam_search,
    constrained_logprob,
    permutation_decode,
)
from .dense_index import (
    DenseIndex,
    build_exact,
    build_graph,
    cluster_keywords,
    load_embeddings,
    load_graph,
    save_embeddings,
    save_graph,
    search,
)
from .encoder import (
    EncoderOutput,
    EncoderParams,
    MiningPlan,
    TrainConfig,
    TrainResult,
    embed_batch,
    embed_flat,
    encode,
    init_params,
    joint_loss,
    load_params,
    mine_negatives,
    save_params,
    train,
)
from .errors import ConsistencyError, TrainingDiverged, UnikwError, ValidationError
from .evaluation import (
    LabeledSet,
    Scorer,
    compute_metrics,
    good_keyword_density,
    length_distribution,
    load_labels,
    ndcg_at_k,
    precision_at_k,
    psn_at_k,
    psp_at_k,
    recall_at_k,
    token_overlap_scorer,
)
from .retriever import (
    EngineBundle,
    RetrievalResult,
    overlap_stats,
    retrieve,
    retrieve_channels,
)
from .trie import (
    FORWARD,
    REVERSED,
    KeywordTrie,
    build_trie,
    build_trie_arrays,
    children,
    deserialize,
    length_partitions,
    lookup,
    memory_stats,
    serialize,
    step,
    terminal_id,
    walk,
)
