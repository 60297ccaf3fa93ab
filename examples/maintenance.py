"""Store maintenance scenario: persistence, incremental insertion,
Dewey-range deletion and value updates.

Run with::

    python examples/maintenance.py

Each step prints its answer; the script exits 1 when one is not the
expected value.
"""

import os
import sys
import tempfile

from repro import (
    Database,
    PPFEngine,
    ShreddedStore,
    infer_schema,
    parse_document,
    parse_fragment,
)

INVENTORY = """
<inventory>
  <section code="tools">
    <item sku="T1"><name>Hammer</name><stock>12</stock></item>
    <item sku="T2"><name>Saw</name><stock>3</stock></item>
  </section>
  <section code="garden">
    <item sku="G1"><name>Rake</name><stock>7</stock></item>
  </section>
</inventory>
"""


def main() -> int:
    mismatches = []

    def check(label: str, got: object, expected: object) -> None:
        print(f"{label}: {got}")
        if got != expected:
            print(f"  MISMATCH: expected {expected}")
            mismatches.append(label)

    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "inventory.db")
        document = parse_document(INVENTORY, name="inventory")

        # 1. Create a persistent store.
        store = ShreddedStore.create(
            Database.open(path), infer_schema([document])
        )
        store.load(document)
        store.db.close()
        print(f"created {path}")

        # 2. Reopen it — the schema travels with the database.
        store = ShreddedStore.open(Database.open(path))
        engine = PPFEngine(store)
        check("items", len(engine.execute("//item")), 3)

        # 3. Incremental insertion: a new item appended under a section.
        #    New root-to-node paths join the Paths index on first sight.
        (section_row,) = engine.execute("//section[@code='garden']")
        new_ids = store.append_subtree(
            section_row.id,
            parse_fragment(
                "<item sku='G2'><name>Shears</name><stock>9</stock></item>"
            ),
        )
        check("appended item ids", new_ids, [13, 14, 15])
        check(
            "garden items",
            engine.execute("//section[@code='garden']/item/name/text()").values,
            ["Rake", "Shears"],
        )

        # 4. Value updates.
        (saw,) = engine.execute("//item[@sku='T2']")
        store.update_text(
            engine.execute("//item[@sku='T2']/stock").ids[0], 0
        )
        check(
            "out of stock",
            engine.execute("//item[stock=0]/@sku").values,
            ["T2"],
        )

        # 5. Subtree deletion — one Dewey range per relation.
        check("rows of the saw subtree", store.delete_subtree(saw.id), 3)
        check("items now", len(engine.execute("//item")), 3)
        check("skus", engine.execute("//item/@sku").values, ["T1", "G1", "G2"])
        store.db.close()

    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
