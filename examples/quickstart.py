"""Quickstart: shred a document, translate XPath to SQL, run queries.

Run with::

    python examples/quickstart.py

It exits 1 when a node count disagrees with the native oracle.
"""

import sys

from repro import (
    Database,
    NativeEngine,
    PPFEngine,
    ShreddedStore,
    infer_schema,
    parse_document,
)

CATALOG = """
<catalog>
  <department code="tools">
    <product sku="T1"><name>Hammer</name><price>9.50</price></product>
    <product sku="T2"><name>Saw</name><price>24.00</price></product>
  </department>
  <department code="garden">
    <product sku="G1"><name>Rake</name><price>14.25</price>
      <review><rating>5</rating><text>Solid rake.</text></review>
    </product>
  </department>
</catalog>
"""


def main() -> int:
    # 1. Parse and inspect the document tree.
    document = parse_document(CATALOG, name="catalog")
    print(f"parsed {document.element_count()} elements")
    for element in list(document.iter_elements())[:4]:
        print(f"  id={element.node_id:<3} dewey={element.dewey} {element.path}")

    # 2. Infer the schema graph and shred into SQLite.
    schema = infer_schema([document])
    store = ShreddedStore.create(Database.memory(), schema)
    store.load(document)
    print("\nrelations:", ", ".join(sorted(store.mapping.relations)))

    # 3. Translate and execute XPath via PPF-based processing.
    engine = PPFEngine(store)
    queries = [
        "/catalog/department/product",
        "//product[price > 10]/name",
        "//product[@sku='G1']//rating",
        "//name/text()",
        "/catalog/department[product/review]/@code",
    ]
    oracle = NativeEngine(document)
    all_agree = True
    for xpath in queries:
        result = engine.execute(xpath)
        expected = len(oracle.execute(xpath))
        print(f"\n=== {xpath}")
        print(engine.explain(xpath))
        if result.projection == "nodes":
            agrees = len(result) == expected
            all_agree = all_agree and agrees
            print(f"--> {len(result)} nodes (oracle agrees: {agrees})")
        else:
            print(f"--> values {result.values}")
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
