"""Setup script for the TER-iDS reproduction package.

A plain setup.py (rather than a PEP 517 pyproject build) is used so that
``pip install -e .`` works in fully offline environments where pip cannot
download an isolated build backend.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "TER-iDS: Online Topic-Aware Entity Resolution Over Incomplete Data "
        "Streams (SIGMOD 2021 reproduction)"
    ),
    long_description=open("README.md").read() if __import__("os").path.exists("README.md") else "",
    long_description_content_type="text/markdown",
    license="MIT",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy>=1.24"],
    extras_require={"test": ["pytest", "hypothesis"]},
)
