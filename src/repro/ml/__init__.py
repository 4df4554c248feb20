"""Numpy ML substrate (no scikit-learn/Keras offline — see DESIGN.md §2).

Exports the Goodman–Kruskal gamma statistic and the four learners MExI
needs: logistic regression, random forest, an LSTM sequence classifier,
and a CNN heatmap classifier. Logistic regression, the LSTM and the CNN
share one training core, :mod:`repro.ml.train`: one sigmoid, one binary
cross-entropy, one Adam step and one minibatch epoch loop.
"""
from repro.ml.cnn import CNNClassifier
from repro.ml.forest import DecisionTree, RandomForest
from repro.ml.gamma import gamma_pvalue, gamma_with_pvalue, goodman_kruskal_gamma
from repro.ml.logreg import LogisticRegression
from repro.ml.lstm import LSTMClassifier, pad_sequences

__all__ = [
    "CNNClassifier",
    "DecisionTree",
    "RandomForest",
    "LogisticRegression",
    "LSTMClassifier",
    "pad_sequences",
    "goodman_kruskal_gamma",
    "gamma_pvalue",
    "gamma_with_pvalue",
]
