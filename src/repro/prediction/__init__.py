"""Prediction: epsilon-SVR, guideline-price predictors and load prediction."""

from repro.prediction.features import (
    FeatureMatrix,
    aware_feature_dataset,
    aware_features_for_day,
    unaware_feature_dataset,
    unaware_features_for_day,
)
from repro.prediction.load import LoadPrediction, predict_community_load
from repro.prediction.price import (
    AwarePricePredictor,
    PricePredictor,
    UnawarePricePredictor,
)
from repro.prediction.svr import SupportVectorRegressor

__all__ = [
    "AwarePricePredictor",
    "FeatureMatrix",
    "LoadPrediction",
    "PricePredictor",
    "SupportVectorRegressor",
    "UnawarePricePredictor",
    "aware_feature_dataset",
    "aware_features_for_day",
    "predict_community_load",
    "unaware_feature_dataset",
    "unaware_features_for_day",
]
