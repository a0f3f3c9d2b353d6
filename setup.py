"""Setup script.

The build uses the legacy setuptools path on purpose: this environment
is offline and has no ``wheel`` package, so PEP 660 editable installs
(``pyproject.toml`` build-system) cannot produce the editable wheel.
``python -m pip install -e . --no-build-isolation`` works through this
file everywhere.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Timing-aware wrapper cell reduction for pre-bond testing of "
        "3D-ICs (SOCC 2019 reproduction)"
    ),
    long_description=open("README.md").read() if __import__("os").path.exists("README.md") else "",
    long_description_content_type="text/markdown",
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    extras_require={"dev": ["pytest", "pytest-benchmark", "hypothesis"]},
    license="MIT",
)
