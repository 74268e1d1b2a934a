from .tensor import (Tensor, ShapeMismatch, as_tensor, concat, stack, softmax,
                     log_softmax, cross_entropy_label_smoothed, l2_distance,
                     layer_norm, linear, linear_data, softmax_data,
                     embedding_lookup, parameter, zeros, use_dtype, no_grad)
from .nn import (Module, Linear, LSTMCell, lstm_sequence, bilstm_layer,
                 BiLSTM,
                 MultiHeadAttention, multi_head_attention, FeedForward, LayerNorm,
                 TransformerEncoderLayer, TransformerDecoderLayer, causal_mask,
                 sinusoidal_positions)
from .optim import Adam, lr_schedule
from .gradcheck import grad_check
from .checkpoint import (save_arrays, load_arrays, atomic_open, CheckpointError,
                         MAGIC, EMBED_MAGIC)
