"""Test-only reference implementations the product code is checked against."""
