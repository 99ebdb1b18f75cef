"""emforge: desk-scale EM signal corpus forge and benchmark harness.

Synthesizes labeled complex-baseband signals for six task families,
renders the four canonical views, emits OpenQA/MCQA instruction records,
builds SNR-stratified leak-free splits, and scores prediction files.
"""
